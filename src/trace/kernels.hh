/**
 * @file
 * Access-pattern kernels: the primitive memory behaviours from which
 * the 26 SPEC CPU2000 stand-in workloads are composed.
 *
 * Each kernel owns a region of the address space, optionally builds a
 * data structure there (linked lists, index tables, transition
 * graphs), and then emits an endless stream of memory references.
 * A reference carries a *slot* — the static load/store site it came
 * from — so the generator can give each site a stable PC (stride
 * prefetchers and the GHB key on PCs), and a *serial_dep* flag for
 * pointer-chasing loads whose address depends on the previous load's
 * value (this serialization is what makes mcf-like codes slow).
 */

#ifndef MICROLIB_TRACE_KERNELS_HH
#define MICROLIB_TRACE_KERNELS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"
#include "trace/memory_image.hh"

namespace microlib
{

/** What the values stored in a kernel's region look like. */
enum class ValueMode : std::uint8_t
{
    Garbage,   ///< deterministic hash values (never pointer-like)
    Frequent,  ///< drawn from a small set of frequent values (FVC food)
    Pointer,   ///< in-region addresses (CDP food)
};

/** One memory reference emitted by a kernel. */
struct MemRef
{
    Addr addr = 0;
    bool store = false;
    Word store_value = 0;      ///< value to write when store == true
    std::uint8_t slot = 0;     ///< static reference site within kernel
    bool serial_dep = false;   ///< address depended on previous load
    /**
     * Dependence chain the serial_dep refers to: the address depends
     * on the previous load carrying the same key, not the previous
     * load globally. Kernels with several independent pointer chains
     * (PointerChaseKernel::Params::chains) key each chain separately,
     * so the chains overlap in the machine — memory-level parallelism
     * by construction. Key 0 (the default) reproduces the classic
     * "depends on the most recent load" behaviour bit-for-bit.
     */
    std::uint8_t dep_key = 0;
};

/** Shared bounds of the synthetic address space. */
constexpr Addr heap_base = 0x10000000;
constexpr Addr heap_limit = 0x90000000;

/** True iff @p v looks like a pointer into the synthetic heap. */
inline bool
looksLikeHeapPointer(Word v)
{
    return v >= heap_base && v < heap_limit && (v & 7) == 0;
}

/** Pick a frequent value; index 0..6 map to the FVC's seven values. */
Word frequentValue(unsigned idx);

/** Abstract pattern kernel. */
class PatternKernel
{
  public:
    virtual ~PatternKernel() = default;

    /** Build data structures in the image (called once per reset). */
    virtual void setup(MemoryImage &img, Rng &rng);

    /** Emit the next reference. */
    virtual MemRef next(MemoryImage &img, Rng &rng) = 0;

    /** Number of static reference sites this kernel uses. */
    virtual unsigned slots() const = 0;

    /** Kernel kind, for diagnostics. */
    virtual const char *kind() const = 0;
};

/**
 * Sequential stream: walks a region with a fixed stride, wrapping at
 * the end. Models array sweeps (swim, lucas, applu inner loops).
 */
class StreamKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t bytes = 1 << 20;
        std::int64_t stride = 8;
        double write_frac = 0.0;
        ValueMode values = ValueMode::Garbage;
    };

    explicit StreamKernel(const Params &p) : _p(p) {}

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override { return 2; }
    const char *kind() const override { return "stream"; }

  private:
    Params _p;
    std::uint64_t _pos = 0;
};

/**
 * Multiple concurrent strided streams over distinct arrays, emitted
 * round-robin with an optional write stream. Models stencil codes
 * (mgrid, applu, fma3d): several input arrays plus an output array.
 */
class MultiStrideKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t array_bytes = 1 << 20;
        std::vector<std::int64_t> strides = {8, 8, 8};
        bool has_write_stream = true;
        ValueMode values = ValueMode::Garbage;
    };

    explicit MultiStrideKernel(const Params &p) : _p(p) {}

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override
    {
        return static_cast<unsigned>(_p.strides.size()) +
               (_p.has_write_stream ? 1 : 0);
    }
    const char *kind() const override { return "multistride"; }

  private:
    Params _p;
    std::vector<std::uint64_t> _pos;
    unsigned _turn = 0;
};

/**
 * Pointer chase over linked lists built in the image. The next
 * pointer lives at @c next_offset inside each node (88 bytes for the
 * ammp pathology: one line past the head of a 64-byte-line fetch).
 * Payload fields around the node are also touched.
 *
 * @c chains splits the nodes into that many independent cycles,
 * followed round-robin: each chain's link load still serializes on
 * its own previous load, but the chains overlap in the machine, so
 * chains == 1 is the pure memory-latency-bound case (every miss
 * exposed, zero memory-level parallelism) and larger counts dial MLP
 * back in — the knob the pchase workload's phases are built from.
 */
class PointerChaseKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t node_bytes = 64;
        std::uint64_t node_count = 4096;
        std::uint64_t next_offset = 0;
        double shuffle = 1.0;       ///< 0 = sequential layout, 1 = shuffled
        double payload_touches = 1.0; ///< avg extra payload refs per node
        double write_frac = 0.1;    ///< fraction of payload refs that store
        ValueMode payload_values = ValueMode::Garbage;
        /** Independent cycles, walked round-robin; at most 7 (each
         *  chain owns one of the generator's dependence keys). */
        unsigned chains = 1;
    };

    explicit PointerChaseKernel(const Params &p)
        : _p(p), _payload_draw(p.payload_touches + 0.01)
    {
    }

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override { return 3; }
    const char *kind() const override { return "ptrchase"; }

  private:
    Params _p;
    Geometric _payload_draw; ///< payload refs per node reached, + 1
    std::vector<Addr> _heads; ///< per-chain current node
    unsigned _turn = 0;       ///< chain whose link is followed next
    Addr _payload_node = 0;   ///< node the payload refs touch
    unsigned _payload_left = 0;

    Addr nodeAddr(std::uint64_t idx) const
    {
        return _p.base + idx * _p.node_bytes;
    }
};

/**
 * First-order Markov walk over a set of line-sized locations: each
 * state has a small successor set with skewed probabilities. Models
 * repetitive-but-branching reference sequences (gzip windows) that
 * Markov prefetchers learn and stride prefetchers do not.
 */
class MarkovChainKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t states = 1024;
        std::uint64_t state_bytes = 32;
        unsigned fanout = 2;
        double primary_prob = 0.8; ///< probability of the first successor
        double write_frac = 0.05;
        ValueMode values = ValueMode::Frequent;
    };

    explicit MarkovChainKernel(const Params &p) : _p(p) {}

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override { return 1; }
    const char *kind() const override { return "markov"; }

  private:
    Params _p;
    std::vector<std::uint32_t> _succ; ///< states x fanout successor ids
    std::uint64_t _state = 0;
};

/**
 * Uniform random word accesses over a region. Models hash/table codes
 * with little locality beyond what fits in cache (parts of gap, vpr).
 */
class RandomKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t bytes = 1 << 20;
        double write_frac = 0.2;
        ValueMode values = ValueMode::Garbage;
    };

    explicit RandomKernel(const Params &p) : _p(p) {}

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override { return 2; }
    const char *kind() const override { return "random"; }

  private:
    Params _p;
};

/**
 * Hot/cold mix: most references hit a small hot region, the rest a
 * large cold one. Models cache-resident integer codes (crafty, eon,
 * perlbmk) whose misses are rare but not absent.
 */
class HotColdKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t hot_bytes = 16 << 10;
        std::uint64_t cold_bytes = 8 << 20;
        double hot_frac = 0.95;
        double write_frac = 0.3;
        ValueMode values = ValueMode::Frequent;
    };

    explicit HotColdKernel(const Params &p) : _p(p) {}

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override { return 2; }
    const char *kind() const override { return "hotcold"; }

  private:
    Params _p;
    std::uint64_t _hot_pos = 0;
};

/**
 * Gather: an index array is streamed sequentially and each index
 * fetches a word from a data table (a[b[i]]); the data load's address
 * depends on the index load (serial_dep). Models art's codebook
 * lookups and gap's table-driven loops.
 */
class GatherKernel : public PatternKernel
{
  public:
    struct Params
    {
        Addr base = heap_base;
        std::uint64_t index_entries = 1 << 16;
        std::uint64_t table_bytes = 4 << 20;
        double write_frac = 0.05;   ///< read-modify-write of table entries
        bool clustered = false;     ///< indices cluster (some locality)
        ValueMode values = ValueMode::Garbage;
    };

    explicit GatherKernel(const Params &p) : _p(p) {}

    void setup(MemoryImage &img, Rng &rng) override;
    MemRef next(MemoryImage &img, Rng &rng) override;
    unsigned slots() const override { return 3; }
    const char *kind() const override { return "gather"; }

  private:
    Params _p;
    std::uint64_t _pos = 0;
    bool _pending_data = false;
    Addr _pending_addr = 0;

    Addr indexBase() const { return _p.base; }
    Addr tableBase() const
    {
        // Pad so index and table streams do not alias in the
        // direct-mapped L1 (see MultiStrideKernel::next).
        return _p.base + alignUp(_p.index_entries * 8, 4096) + 4160;
    }
};

} // namespace microlib

#endif // MICROLIB_TRACE_KERNELS_HH
