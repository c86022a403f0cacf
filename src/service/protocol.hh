/**
 * @file
 * The microlib_sweepd wire protocol: newline-delimited JSON objects.
 *
 * Every message on a service connection is one complete JSON object
 * on one line, distinguished by its first key:
 *
 *   {"cmd":...}    a request (client or worker -> daemon)
 *   {"reply":...}  the daemon's response to the previous request
 *   {"event":...}  a progress line (core/progress.hh) a worker
 *                  relays verbatim while executing a lease
 *
 * The full grammar lives in docs/SWEEP_SERVICE.md. This header is
 * NOT a JSON library: it is exactly the subset the protocol needs —
 * flat objects whose values are strings, unsigned integers, or
 * arrays of unsigned integers. Lines are built by the progress
 * stream's builder (ProgressEvent with a "cmd" or "reply" leading
 * key, core/progress.hh) and read here with the same escaping rules,
 * so a relayed progress line and a protocol line never disagree
 * about what a byte means. Messages are extracted by key, not
 * position: readers ignore keys they do not know, so the protocol
 * is forward-extensible without a version dance (the schema tuple
 * in the worker hello covers the parts that must match exactly).
 */

#ifndef MICROLIB_SERVICE_PROTOCOL_HH
#define MICROLIB_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/progress.hh"

namespace microlib
{

/** Version of the worker's side of the conversation, carried in the
 *  schema tuple (sim/version.hh) so a worker that would talk past
 *  the daemon is refused at hello. 1: finished records travel over
 *  the connection as `record` lines. */
constexpr int wire_version = 1;

/** Whether @p line's first key is @p key ("cmd", "reply", "event")
 *  and, if so, its string value in @p out. */
bool protocolKind(const std::string &line, const std::string &key,
                  std::string &out);

/** Extract the string value of "key":"..." from @p line, unescaping
 *  \" \\ and \uXXXX control escapes; false if absent or malformed. */
bool jsonFindString(const std::string &line, const std::string &key,
                    std::string &out);

/** Extract the unsigned value of "key":<digits>; false if absent. */
bool jsonFindU64(const std::string &line, const std::string &key,
                 std::uint64_t &out);

/** Extract "key":[<digits>,...] into @p out; false if absent or
 *  malformed (an empty array is success). */
bool jsonFindArray(const std::string &line, const std::string &key,
                   std::vector<std::size_t> &out);

} // namespace microlib

#endif // MICROLIB_SERVICE_PROTOCOL_HH
