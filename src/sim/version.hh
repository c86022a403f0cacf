/**
 * @file
 * One shared version stamp for every MicroLib binary.
 *
 * A sweep service splits one logical system across processes built at
 * different times (daemon, workers, clients), so "which build is
 * this?" must be answerable — and comparable — everywhere. Two layers:
 *
 *  - gitDescribe(): the human-facing build identity (git describe at
 *    configure time; "unknown" outside a git checkout). Informational
 *    only: two differently-built binaries interoperate fine as long
 *    as their schema tuple matches.
 *
 *  - schemaTuple(): the *compatibility* identity — the result-store
 *    record schema, the trace-arena file schema, the sweep-hash
 *    algorithm version and the worker wire version, joined into one
 *    canonical string. Any mismatch means the processes would
 *    disagree about what a persisted byte or a protocol line means,
 *    so microlib_sweepd refuses workers whose tuple differs from its
 *    own (docs/SWEEP_SERVICE.md).
 *
 * All three CLI tools print versionString() for --version, so a
 * client/daemon/worker skew is diagnosable by eye: compare the lines.
 */

#ifndef MICROLIB_SIM_VERSION_HH
#define MICROLIB_SIM_VERSION_HH

#include <string>

namespace microlib
{

/** `git describe --always --dirty` captured at configure time, or
 *  "unknown" when the build tree had no git metadata. */
const char *gitDescribe();

/** The canonical on-disk/protocol compatibility tuple:
 *  "store=<result_store_schema>;arena=<TraceArena::schema_version>;"
 *  "sweephash=<sweep_hash_version>;wire=<wire_version>".
 *  Byte-compared by the daemon when a worker attaches. */
std::string schemaTuple();

/** The full one-line --version output for @p tool:
 *  "<tool> <git> (<schema tuple>)". */
std::string versionString(const char *tool);

} // namespace microlib

#endif // MICROLIB_SIM_VERSION_HH
