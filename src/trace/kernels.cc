#include "trace/kernels.hh"

#include <algorithm>
#include <numeric>

#include "sim/logging.hh"

namespace microlib
{

Word
frequentValue(unsigned idx)
{
    // The seven values the FVC article observes dominating SPEC data:
    // zero, small positive/negative integers, and powers of two.
    static constexpr Word values[7] = {
        0, 1, static_cast<Word>(-1), 2, 4, 8, 255,
    };
    return values[idx % 7];
}

namespace
{

/** Value to store according to a kernel's ValueMode. */
Word
storeValue(ValueMode mode, Addr addr, Rng &rng)
{
    switch (mode) {
      case ValueMode::Frequent:
        // Roughly half the stored words come from the frequent set —
        // the value-locality level the FVC article reports; whole
        // lines of frequent values are then uncommon but real.
        if (rng.chance(0.55))
            return frequentValue(static_cast<unsigned>(rng.nextBounded(7)));
        return MemoryImage::defaultValue(addr) ^ rng.next();
      case ValueMode::Pointer:
        // Pointer-rich structures still hold mostly scalars: about a
        // third of the words are pointers (mcf's 128-byte node holds
        // a handful), the rest integers. Content-directed prefetching
        // keys on exactly this density.
        if (rng.chance(0.35))
            return heap_base + (rng.nextBounded(1 << 20) * 8);
        return frequentValue(static_cast<unsigned>(rng.nextBounded(7)));
      case ValueMode::Garbage:
      default:
        return MemoryImage::defaultValue(addr) ^ 0x5a5a5a5a;
    }
}

/** Seed a region with mode-consistent initial contents, sparsely:
 *  one word per 64-byte chunk is enough for the value-sensitive
 *  mechanisms to see representative data without paying full-footprint
 *  initialization cost. */
void
seedRegion(MemoryImage &img, Addr base, std::uint64_t bytes,
           ValueMode mode, Rng &rng)
{
    if (mode == ValueMode::Garbage)
        return; // defaultValue() already provides garbage
    for (Addr a = base; a < base + bytes; a += 64)
        img.write(a, storeValue(mode, a, rng));
}

} // namespace

void
PatternKernel::setup(MemoryImage &img, Rng &rng)
{
    (void)img;
    (void)rng;
}

// ---------------------------------------------------------------- Stream

void
StreamKernel::setup(MemoryImage &img, Rng &rng)
{
    _pos = 0;
    seedRegion(img, _p.base, std::min<std::uint64_t>(_p.bytes, 1 << 20),
               _p.values, rng);
}

MemRef
StreamKernel::next(MemoryImage &img, Rng &rng)
{
    (void)img;
    MemRef ref;
    ref.addr = _p.base + _pos;
    const std::uint64_t step =
        static_cast<std::uint64_t>(_p.stride < 0 ? -_p.stride : _p.stride);
    _pos += step;
    if (_pos + 8 > _p.bytes)
        _pos = 0;
    if (rng.chance(_p.write_frac)) {
        ref.store = true;
        ref.store_value = storeValue(_p.values, ref.addr, rng);
        ref.slot = 1;
    }
    return ref;
}

// ----------------------------------------------------------- MultiStride

void
MultiStrideKernel::setup(MemoryImage &img, Rng &rng)
{
    if (_p.strides.empty())
        fatal("MultiStrideKernel needs at least one stride");
    _pos.assign(slots(), 0);
    _turn = 0;
    seedRegion(img, _p.base,
               std::min<std::uint64_t>(_p.array_bytes, 1 << 20), _p.values,
               rng);
}

MemRef
MultiStrideKernel::next(MemoryImage &img, Rng &rng)
{
    (void)img;
    (void)rng;
    MemRef ref;
    const unsigned n_read = static_cast<unsigned>(_p.strides.size());
    const unsigned s = _turn;
    _turn = (_turn + 1) % slots();

    // Arrays are padded apart (as real allocators and Fortran common
    // blocks do); without this, multi-megabyte arrays all alias to
    // the same direct-mapped set and every access conflicts.
    const Addr array_base = _p.base + s * (_p.array_bytes + 4160);

    ref.slot = static_cast<std::uint8_t>(s);
    if (s < n_read) {
        const std::uint64_t step = static_cast<std::uint64_t>(
            _p.strides[s] < 0 ? -_p.strides[s] : _p.strides[s]);
        ref.addr = array_base + _pos[s];
        _pos[s] += step;
        if (_pos[s] + 8 > _p.array_bytes)
            _pos[s] = 0;
    } else {
        // Output stream: unit stride over its own array.
        ref.addr = array_base + _pos[s];
        ref.store = true;
        ref.store_value = storeValue(_p.values, ref.addr, rng);
        _pos[s] += 8;
        if (_pos[s] + 8 > _p.array_bytes)
            _pos[s] = 0;
    }
    return ref;
}

// ---------------------------------------------------------- PointerChase

void
PointerChaseKernel::setup(MemoryImage &img, Rng &rng)
{
    if (_p.next_offset + 8 > _p.node_bytes)
        fatal("PointerChaseKernel: next_offset outside node");
    const unsigned nchains = _p.chains ? _p.chains : 1;
    if (_p.node_count < nchains)
        fatal("PointerChaseKernel: ", nchains, " chain(s) over ",
              _p.node_count, " node(s)");
    // Each chain needs its own dependence key, and key 0 is reserved
    // for ordinary loads; the generator tracks 8 keys total. More
    // chains would silently alias into one serial chain — refuse.
    if (nchains > 7)
        fatal("PointerChaseKernel: at most 7 chains (per-chain "
              "dependence keys), got ", nchains);

    // Build a permutation over all nodes, then slice the visitation
    // order into `chains` independent cycles: every node's next
    // pointer leads to the following node of its slice, the last
    // wrapping to the slice head. One chain is the classic single
    // big cycle.
    std::vector<std::uint32_t> order(_p.node_count);
    std::iota(order.begin(), order.end(), 0);
    // Fisher-Yates, partially applied according to the shuffle knob.
    const std::size_t limit =
        static_cast<std::size_t>(_p.shuffle * _p.node_count);
    for (std::size_t i = 0; i < limit && i + 1 < order.size(); ++i) {
        const std::size_t j = i + rng.nextBounded(order.size() - i);
        std::swap(order[i], order[j]);
    }

    _heads.assign(nchains, 0);
    for (unsigned c = 0; c < nchains; ++c) {
        const std::size_t begin = c * order.size() / nchains;
        const std::size_t end = (c + 1) * order.size() / nchains;
        for (std::size_t i = begin; i < end; ++i) {
            const Addr node = nodeAddr(order[i]);
            const Addr next =
                nodeAddr(order[i + 1 < end ? i + 1 : begin]);
            img.write(node + _p.next_offset, next);
            // First payload word, mode-consistent.
            if (_p.node_bytes >= 16) {
                const Addr payload =
                    node + (_p.next_offset == 0 ? 8 : 0);
                img.write(payload,
                          storeValue(_p.payload_values, payload, rng));
            }
        }
        _heads[c] = nodeAddr(order[begin]);
    }
    _turn = 0;
    _payload_node = _heads[0];
    _payload_left = 0;
}

MemRef
PointerChaseKernel::next(MemoryImage &img, Rng &rng)
{
    MemRef ref;
    if (_payload_left > 0) {
        // Touch payload fields of the node just reached.
        --_payload_left;
        const std::uint64_t words = _p.node_bytes / 8;
        const Addr a = _payload_node + 8 * rng.nextBounded(words);
        ref.addr = a;
        ref.slot = 1;
        if (a != _payload_node + _p.next_offset &&
            rng.chance(_p.write_frac)) {
            ref.store = true;
            ref.store_value = storeValue(_p.payload_values, a, rng);
            ref.slot = 2;
        }
        return ref;
    }

    // Follow the next pointer of the chain whose turn it is: a load
    // serially dependent on that chain's previous link load.
    const Addr link = _heads[_turn] + _p.next_offset;
    ref.addr = link;
    ref.slot = 0;
    ref.serial_dep = true;
    // Multi-chain walks serialize per chain, not globally: keys 1..7
    // keep each chain's link loads in their own dependence chain
    // (setup() capped the chain count) while the single-chain case
    // stays on the classic key 0.
    if (_heads.size() > 1)
        ref.dep_key = static_cast<std::uint8_t>(1 + _turn);
    const Word next = img.read(link);
    if (looksLikeHeapPointer(next))
        _heads[_turn] = next;
    else
        _heads[_turn] = nodeAddr(0); // corrupted by a payload write:
                                     // restart
    _payload_node = _heads[_turn];
    _payload_left = static_cast<unsigned>(_payload_draw(rng) - 1);
    _turn = (_turn + 1) % static_cast<unsigned>(_heads.size());
    return ref;
}

// ----------------------------------------------------------- MarkovChain

void
MarkovChainKernel::setup(MemoryImage &img, Rng &rng)
{
    _succ.assign(_p.states * _p.fanout, 0);
    for (std::uint64_t s = 0; s < _p.states; ++s)
        for (unsigned f = 0; f < _p.fanout; ++f)
            _succ[s * _p.fanout + f] =
                static_cast<std::uint32_t>(rng.nextBounded(_p.states));
    _state = 0;
    seedRegion(img, _p.base, _p.states * _p.state_bytes, _p.values, rng);
}

MemRef
MarkovChainKernel::next(MemoryImage &img, Rng &rng)
{
    (void)img;
    MemRef ref;
    ref.addr = _p.base + _state * _p.state_bytes +
               8 * rng.nextBounded(_p.state_bytes / 8);
    ref.slot = 0;
    // The next reference depends on processing this one (LZ77 match
    // chains): the access sequence is serialized, which is what makes
    // correlation prefetching — not wider windows — the cure.
    ref.serial_dep = true;
    if (rng.chance(_p.write_frac)) {
        ref.store = true;
        ref.store_value = storeValue(_p.values, ref.addr, rng);
    }

    unsigned pick = 0;
    if (!rng.chance(_p.primary_prob))
        pick = 1 + static_cast<unsigned>(rng.nextBounded(_p.fanout - 1));
    _state = _succ[_state * _p.fanout + pick % _p.fanout];
    return ref;
}

// ---------------------------------------------------------------- Random

void
RandomKernel::setup(MemoryImage &img, Rng &rng)
{
    seedRegion(img, _p.base, std::min<std::uint64_t>(_p.bytes, 1 << 20),
               _p.values, rng);
}

MemRef
RandomKernel::next(MemoryImage &img, Rng &rng)
{
    (void)img;
    MemRef ref;
    ref.addr = _p.base + 8 * rng.nextBounded(_p.bytes / 8);
    if (rng.chance(_p.write_frac)) {
        ref.store = true;
        ref.store_value = storeValue(_p.values, ref.addr, rng);
        ref.slot = 1;
    }
    return ref;
}

// --------------------------------------------------------------- HotCold

void
HotColdKernel::setup(MemoryImage &img, Rng &rng)
{
    _hot_pos = 0;
    seedRegion(img, _p.base, _p.hot_bytes, _p.values, rng);
}

MemRef
HotColdKernel::next(MemoryImage &img, Rng &rng)
{
    (void)img;
    MemRef ref;
    if (rng.chance(_p.hot_frac)) {
        // Mostly-sequential walk of the hot region with small jumps.
        ref.addr = _p.base + _hot_pos;
        _hot_pos = (_hot_pos + 8 + 8 * rng.nextBounded(4)) % _p.hot_bytes;
        ref.slot = 0;
    } else {
        ref.addr = _p.base + _p.hot_bytes +
                   8 * rng.nextBounded(_p.cold_bytes / 8);
        ref.slot = 1;
    }
    if (rng.chance(_p.write_frac)) {
        ref.store = true;
        ref.store_value = storeValue(_p.values, ref.addr, rng);
    }
    return ref;
}

// ---------------------------------------------------------------- Gather

void
GatherKernel::setup(MemoryImage &img, Rng &rng)
{
    const std::uint64_t table_words = _p.table_bytes / 8;
    for (std::uint64_t i = 0; i < _p.index_entries; ++i) {
        std::uint64_t idx;
        if (_p.clustered) {
            // Runs of nearby indices: locality the L2 can exploit.
            const std::uint64_t cluster =
                rng.nextBounded(table_words / 64) * 64;
            idx = cluster + rng.nextBounded(64);
        } else {
            idx = rng.nextBounded(table_words);
        }
        img.write(indexBase() + i * 8, idx);
    }
    seedRegion(img, tableBase(),
               std::min<std::uint64_t>(_p.table_bytes, 1 << 20), _p.values,
               rng);
    _pos = 0;
    _pending_data = false;
}

MemRef
GatherKernel::next(MemoryImage &img, Rng &rng)
{
    MemRef ref;
    if (_pending_data) {
        _pending_data = false;
        ref.addr = _pending_addr;
        ref.slot = 1;
        ref.serial_dep = true; // a[b[i]]: depends on the index load
        if (rng.chance(_p.write_frac)) {
            ref.store = true;
            ref.store_value = storeValue(_p.values, ref.addr, rng);
            ref.slot = 2;
        }
        return ref;
    }

    const Addr idx_addr = indexBase() + _pos * 8;
    _pos = (_pos + 1) % _p.index_entries;
    ref.addr = idx_addr;
    ref.slot = 0;

    const Word idx = img.read(idx_addr) % (_p.table_bytes / 8);
    _pending_addr = tableBase() + idx * 8;
    _pending_data = true;
    return ref;
}

} // namespace microlib
