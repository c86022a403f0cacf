#include "sim/version.hh"

#include <sstream>

#include "core/result_store.hh"
#include "core/sweep_spec.hh"
#include "service/protocol.hh"
#include "trace/trace_arena.hh"

namespace microlib
{

const char *
gitDescribe()
{
#ifdef MICROLIB_GIT_DESCRIBE
    return MICROLIB_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

std::string
schemaTuple()
{
    std::ostringstream os;
    os << "store=" << result_store_schema
       << ";arena=" << TraceArena::schema_version
       << ";sweephash=" << sweep_hash_version
       << ";wire=" << wire_version;
    return os.str();
}

std::string
versionString(const char *tool)
{
    std::ostringstream os;
    os << tool << ' ' << gitDescribe() << " (" << schemaTuple() << ")";
    return os.str();
}

} // namespace microlib
