#include "core/result_store.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/fingerprint.hh"
#include "sim/logging.hh"
#include "trace/spec_suite.hh"

namespace microlib
{

namespace
{

/** Line tag for the current schema; unknown tags are skipped. */
std::string
schemaTag(int schema)
{
    // Built by append, not operator+: GCC 12's -Wrestrict false-
    // positives on "v" + to_string(...) in this TU.
    std::string tag = "v";
    tag += std::to_string(schema);
    return tag;
}

void
mixCache(Fingerprint &fp, const CacheParams &p)
{
    fp.mix(p.name);
    fp.mix(p.size);
    fp.mix(p.line);
    fp.mix(p.assoc);
    fp.mix(p.ports);
    fp.mix(p.latency);
    fp.mix(p.mshrs);
    fp.mix(p.reads_per_mshr);
    fp.mix(p.finite_mshr);
    fp.mix(p.pipeline_stalls);
    fp.mix(p.refill_uses_ports);
    fp.mix(p.port_contention);
}

void
mixBus(Fingerprint &fp, const BusParams &p)
{
    fp.mix(p.name);
    fp.mix(p.bytes_per_beat);
    fp.mix(p.cycles_per_beat);
}

void
mixSdram(Fingerprint &fp, const SdramParams &p)
{
    fp.mix(p.name);
    fp.mix(p.banks);
    fp.mix(p.rows);
    fp.mix(p.columns);
    fp.mix(p.column_bytes);
    fp.mix(p.ras_to_ras);
    fp.mix(p.ras_active);
    fp.mix(p.ras_to_cas);
    fp.mix(p.cas_latency);
    fp.mix(p.ras_precharge);
    fp.mix(p.ras_cycle);
    fp.mix(p.queue_entries);
    fp.mix(p.mapping);
    fp.mix(p.scheduler_rows);
    fp.mix(p.scheduler_window);
    fp.mix(p.line_bytes);
}

void
mixCore(Fingerprint &fp, const CoreParams &p)
{
    fp.mix(p.ruu_size);
    fp.mix(p.lsq_size);
    fp.mix(p.fetch_width);
    fp.mix(p.commit_width);
    fp.mix(p.fu.int_alu);
    fp.mix(p.fu.int_mult);
    fp.mix(p.fu.fp_alu);
    fp.mix(p.fu.fp_mult);
    fp.mix(p.fu.ls_units);
    fp.mix(p.fu.int_alu_latency);
    fp.mix(p.fu.int_mult_latency);
    fp.mix(p.fu.fp_alu_latency);
    fp.mix(p.fu.fp_mult_latency);
    fp.mix(p.fu.agen_latency);
    fp.mix(p.mispredict_rate);
    fp.mix(p.mispredict_penalty);
}

/** Exact double -> text: hexfloat round-trips bit-for-bit. */
std::string
exactDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Parse a double requiring the WHOLE token to be consumed: a value
 *  truncated by a torn write ("0x1.5" out of "0x1.5555...p-2") is
 *  still a valid strtod prefix, so a plain strtod would silently
 *  accept corrupted tails. */
bool
parseExactDouble(const char *s, double &out)
{
    if (*s == '\0')
        return false;
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end && *end == '\0';
}

/** Consume "prefix=<u64>" from @p is into @p out. */
bool
readU64(std::istringstream &is, const char *prefix, std::uint64_t &out)
{
    std::string tok;
    if (!(is >> tok))
        return false;
    const std::string p = std::string(prefix) + "=";
    if (tok.rfind(p, 0) != 0)
        return false;
    char *end = nullptr;
    out = std::strtoull(tok.c_str() + p.size(), &end, 10);
    return end && *end == '\0' && end != tok.c_str() + p.size();
}

/** Consume "prefix=<name>" (no '=' in the value) from @p is. */
bool
readName(std::istringstream &is, const char *prefix, std::string &out)
{
    std::string tok;
    if (!(is >> tok))
        return false;
    const std::string p = std::string(prefix) + "=";
    if (tok.rfind(p, 0) != 0)
        return false;
    out = tok.substr(p.size());
    return !out.empty();
}

/** FNV fingerprint of a record body — the line text up to (not
 *  including) the " ck=" field. Catches flipped bits and spliced
 *  lines, which the end-of-record terminator alone cannot. */
std::uint64_t
recordChecksum(const std::string &body)
{
    Fingerprint fp;
    fp.mix(body);
    return fp.value();
}

/** Whether MICROLIB_STORE_FSYNC asks for fsync-per-append. */
bool
fsyncRequested()
{
    const char *env = std::getenv("MICROLIB_STORE_FSYNC");
    return env && *env && std::string(env) != "0";
}

} // namespace

std::uint64_t
fingerprintConfig(const RunConfig &cfg)
{
    Fingerprint fp;
    fp.mix(static_cast<std::uint64_t>(result_store_schema));
    mixCore(fp, cfg.system.core);
    mixCache(fp, cfg.system.hier.l1d);
    mixCache(fp, cfg.system.hier.l1i);
    mixCache(fp, cfg.system.hier.l2);
    mixBus(fp, cfg.system.hier.l1l2_bus);
    mixBus(fp, cfg.system.hier.fsb);
    fp.mix(cfg.system.hier.memory);
    fp.mix(cfg.system.hier.const_latency);
    mixSdram(fp, cfg.system.hier.sdram);
    fp.mix(cfg.system.hier.model_icache);
    // The trace window: the same string the trace cache keys on, so
    // the store and the cache cannot disagree about what "the same
    // window" means.
    fp.mix(windowKey(cfg));
    fp.mix(cfg.mech.second_guess);
    fp.mix(cfg.mech.tcp_buffer);
    return fp.value();
}

ResultKey
makeResultKey(const std::string &benchmark, const std::string &mechanism,
              std::uint64_t config_hash)
{
    ResultKey key;
    key.benchmark = benchmark;
    key.mechanism = mechanism;
    key.config_hash = config_hash;
    key.trace_seed = specProgram(benchmark).seed;
    return key;
}

std::string
ResultKey::str() const
{
    std::ostringstream os;
    os << schema << '\0' << config_hash << '\0' << trace_seed << '\0'
       << benchmark << '\0' << mechanism;
    return os.str();
}

RunOutput
toRunOutput(const ResultRecord &rec)
{
    RunOutput out;
    out.benchmark = rec.key.benchmark;
    out.mechanism = rec.key.mechanism;
    out.core = rec.core;
    out.stats = rec.stats;
    return out;
}

ResultRecord
makeRecord(ResultKey key, const RunOutput &out)
{
    ResultRecord rec;
    rec.key = std::move(key);
    rec.core = out.core;
    rec.stats = out.stats;
    return rec;
}

std::string
ResultStore::formatRecord(const ResultRecord &rec)
{
    std::ostringstream os;
    os << schemaTag(rec.key.schema)
       << " fp=" << Fingerprint::hexOf(rec.key.config_hash)
       << " seed=" << rec.key.trace_seed
       << " bench=" << rec.key.benchmark
       << " mech=" << rec.key.mechanism
       << " instr=" << rec.core.instructions
       << " cycles=" << rec.core.cycles
       << " loads=" << rec.core.loads
       << " stores=" << rec.core.stores
       << " branches=" << rec.core.branches
       << " mispred=" << rec.core.mispredicts
       << " ipc=" << exactDouble(rec.core.ipc) << " |";
    for (const auto &kv : rec.stats)
        os << ' ' << kv.first << '=' << exactDouble(kv.second);
    // Checksum before the terminator: a proper prefix of the line
    // must never end in the valid " ." terminator, or torn writes
    // would parse as complete records.
    std::string line = os.str();
    line += " ck=";
    line += Fingerprint::hexOf(recordChecksum(os.str()));
    // End-of-record terminator: any proper prefix of a record (a
    // torn final write) fails to parse instead of resuming with
    // silently missing or truncated stat values.
    line += " .";
    return line;
}

bool
ResultStore::parseRecord(const std::string &line, ResultRecord &rec)
{
    // A checksummed line is "<body> ck=<16hex> ."; verify the
    // checksum, then reduce to the legacy "<body> ." form so one
    // grammar parses both generations of line.
    std::string text = line;
    const auto ckpos = line.rfind(" ck=");
    if (ckpos != std::string::npos) {
        const std::string tail = line.substr(ckpos);
        if (tail.size() != 4 + 16 + 2 ||
            tail.compare(tail.size() - 2, 2, " .") != 0)
            return false; // torn or malformed checksum field
        std::uint64_t want = 0;
        if (!Fingerprint::parseHex(tail.substr(4, 16), want))
            return false;
        if (recordChecksum(line.substr(0, ckpos)) != want)
            return false; // corrupted in place, not just torn
        text = line.substr(0, ckpos) + " .";
    }
    std::istringstream is(text);
    std::string tag;
    if (!(is >> tag) || tag != schemaTag(result_store_schema))
        return false;
    rec.key.schema = result_store_schema;

    std::string fp_hex;
    if (!readName(is, "fp", fp_hex) ||
        !Fingerprint::parseHex(fp_hex, rec.key.config_hash))
        return false;
    if (!readU64(is, "seed", rec.key.trace_seed) ||
        !readName(is, "bench", rec.key.benchmark) ||
        !readName(is, "mech", rec.key.mechanism) ||
        !readU64(is, "instr", rec.core.instructions) ||
        !readU64(is, "cycles", rec.core.cycles) ||
        !readU64(is, "loads", rec.core.loads) ||
        !readU64(is, "stores", rec.core.stores) ||
        !readU64(is, "branches", rec.core.branches) ||
        !readU64(is, "mispred", rec.core.mispredicts))
        return false;

    std::string tok;
    if (!(is >> tok) || tok.rfind("ipc=", 0) != 0 ||
        !parseExactDouble(tok.c_str() + 4, rec.core.ipc))
        return false;

    if (!(is >> tok) || tok != "|")
        return false;

    rec.stats.clear();
    bool terminated = false;
    while (is >> tok) {
        if (tok == ".") {
            terminated = true;
            break;
        }
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        double v = 0.0;
        if (!parseExactDouble(tok.c_str() + eq + 1, v))
            return false;
        rec.stats[tok.substr(0, eq)] = v;
    }
    // No terminator (or trailing junk after it): a torn or spliced
    // line — reject the whole record rather than trust a prefix.
    return terminated && !(is >> tok);
}

ResultStore::ResultStore(const std::string &path, Mode mode)
    : _path(path), _mode(mode), _fsync(fsyncRequested())
{
    if (_mode == Mode::ReadWrite) {
        const std::filesystem::path parent =
            std::filesystem::path(_path).parent_path();
        if (!parent.empty())
            std::filesystem::create_directories(parent);
    }
    loadFile();
    // The append stream opens lazily (ensureAppend) on the first
    // put(): a store opened only to be queried — status tools, the
    // daemon's read-only mode — must not create an empty backing file
    // or hold a write handle on someone else's live store.
}

ResultStore::~ResultStore()
{
    if (_append)
        std::fclose(_append);
}

void
ResultStore::loadFile()
{
    std::ifstream in(_path);
    if (!in)
        return; // first use: empty store
    std::string line;
    std::size_t skipped = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ResultRecord rec;
        if (parseRecord(line, rec))
            _records[rec.key.str()] = std::move(rec);
        else
            ++skipped; // unknown schema, torn line or bad checksum
    }
    if (skipped) {
        _unreadable += skipped;
        warn("result store ", _path, ": skipped ", skipped,
             " unreadable record(s) (older schema, torn write or "
             "checksum mismatch)");
    }
}

std::size_t
ResultStore::unreadable() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _unreadable;
}

std::optional<ResultRecord>
ResultStore::find(const ResultKey &key) const
{
    std::lock_guard<std::mutex> lock(_mu);
    auto it = _records.find(key.str());
    if (it == _records.end())
        return std::nullopt;
    return it->second;
}

void
ResultStore::ensureAppend()
{
    if (_mode == Mode::ReadOnly)
        fatal("result store ", _path, ": write to a read-only store");
    if (_append || _path.empty())
        return;
    _append = std::fopen(_path.c_str(), "a");
    if (!_append)
        fatal("result store: cannot open ", _path, " for append");
}

void
ResultStore::put(const ResultRecord &rec)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!_path.empty()) {
        ensureAppend();
        // After a failed append the file may end in a torn line:
        // start on a fresh one, so only that line is unreadable.
        std::string line = _torn ? "\n" : "";
        line += formatRecord(rec);
        line += '\n';
        const bool ok =
            std::fwrite(line.data(), 1, line.size(), _append) ==
                line.size() &&
            std::fflush(_append) == 0 && // a killed sweep keeps this run
            (!_fsync || ::fsync(fileno(_append)) == 0); // ...and a host
        if (!ok) {
            const int err = errno;
            // Drop whatever the stream still buffers; the next put()
            // reopens it.
            std::fclose(_append);
            _append = nullptr;
            _torn = true;
            throw std::runtime_error("result store " + _path +
                                     ": append failed: " +
                                     std::strerror(err));
        }
        _torn = false;
    }
    _records[rec.key.str()] = rec;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _records.size();
}

std::size_t
ResultStore::compact()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_path.empty())
        return _records.size(); // memory-only: already one per key
    if (_mode == Mode::ReadOnly)
        fatal("result store ", _path, ": compact of a read-only store");

    // Sorted key order: the compacted file is a pure function of the
    // record set, so differently-assembled stores with equal records
    // compact byte-identically (and diff cleanly).
    std::vector<const std::string *> keys;
    keys.reserve(_records.size());
    for (const auto &kv : _records)
        keys.push_back(&kv.first);
    std::sort(keys.begin(), keys.end(),
              [](const std::string *a, const std::string *b)
              { return *a < *b; });

    const std::string tmp = _path + ".compact.tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            fatal("result store compact: cannot write ", tmp);
        for (const std::string *k : keys)
            out << formatRecord(_records.at(*k)) << '\n';
        out.flush();
        if (!out)
            fatal("result store compact: write to ", tmp, " failed");
    }

    // Swap the compacted file in atomically, then reopen the append
    // stream on it: later put() calls extend the compacted file.
    if (_append)
        std::fclose(_append);
    _append = nullptr;
    std::error_code ec;
    std::filesystem::rename(tmp, _path, ec);
    if (ec)
        fatal("result store compact: cannot replace ", _path, ": ",
              ec.message());
    _append = std::fopen(_path.c_str(), "a");
    if (!_append)
        fatal("result store compact: cannot reopen ", _path);
    return _records.size();
}

std::size_t
ResultStore::merge(const std::string &input_path)
{
    if (_mode == Mode::ReadOnly)
        fatal("result store ", _path, ": merge into a read-only store");
    // Merging a store into itself would never terminate: put()
    // appends to the backing file while getline() is still reading
    // it, so every record read lands another one ahead of the
    // cursor.
    if (!_path.empty()) {
        std::error_code ec;
        if (input_path == _path ||
            std::filesystem::equivalent(input_path, _path, ec)) {
            warn("result store merge: refusing to merge ", input_path,
                 " into itself");
            return 0;
        }
    }
    std::ifstream in(input_path, std::ios::binary);
    if (!in) {
        warn("result store merge: cannot read ", input_path);
        return 0;
    }
    std::string line;
    std::size_t merged = 0;
    std::size_t skipped = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ResultRecord rec;
        if (!parseRecord(line, rec)) {
            ++skipped;
            continue;
        }
        put(rec);
        ++merged;
    }
    if (skipped) {
        {
            std::lock_guard<std::mutex> lock(_mu);
            _unreadable += skipped;
        }
        warn("result store merge from ", input_path, ": skipped ",
             skipped, " unreadable record(s)");
    }
    return merged;
}

} // namespace microlib
