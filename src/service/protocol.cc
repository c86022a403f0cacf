#include "service/protocol.hh"

#include <cstdlib>

namespace microlib
{

namespace
{

/** Locate the value start of `"key":` in @p line, or npos. Safe
 *  against keys occurring inside string values: every interior quote
 *  of a well-formed value is escaped (\"), so the raw byte sequence
 *  `"key":` can only open a real field. */
std::size_t
valueStart(const std::string &line, const std::string &key)
{
    const std::string token = "\"" + key + "\":";
    const auto at = line.find(token);
    if (at == std::string::npos)
        return std::string::npos;
    return at + token.size();
}

/** Unescape one JSON string body starting at @p at (just past the
 *  opening quote); false on a malformed escape or a missing closing
 *  quote. */
bool
unescapeFrom(const std::string &line, std::size_t at, std::string &out)
{
    out.clear();
    while (at < line.size()) {
        const char c = line[at];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            ++at;
            continue;
        }
        if (at + 1 >= line.size())
            return false;
        const char esc = line[at + 1];
        switch (esc) {
          case '"':
            out += '"';
            at += 2;
            break;
          case '\\':
            out += '\\';
            at += 2;
            break;
          case '/':
            out += '/';
            at += 2;
            break;
          case 'n':
            out += '\n';
            at += 2;
            break;
          case 't':
            out += '\t';
            at += 2;
            break;
          case 'r':
            out += '\r';
            at += 2;
            break;
          case 'u': {
            if (at + 6 > line.size())
                return false;
            const std::string hex = line.substr(at + 2, 4);
            char *end = nullptr;
            const unsigned long v = std::strtoul(hex.c_str(), &end, 16);
            if (!end || *end != '\0' || v > 0xff)
                return false; // escape() only emits \u00xx controls
            out += static_cast<char>(v);
            at += 6;
            break;
          }
          default:
            return false;
        }
    }
    return false; // no closing quote
}

} // namespace

bool
protocolKind(const std::string &line, const std::string &key,
             std::string &out)
{
    // The first key must BE @p key: a relayed progress line contains
    // "event" first, and must not be mistaken for a request even if
    // a later field were named "cmd".
    const std::string prefix = "{\"" + key + "\":\"";
    if (line.rfind(prefix, 0) != 0)
        return false;
    return unescapeFrom(line, prefix.size(), out);
}

bool
jsonFindString(const std::string &line, const std::string &key,
               std::string &out)
{
    const auto at = valueStart(line, key);
    if (at == std::string::npos || at >= line.size() ||
        line[at] != '"')
        return false;
    return unescapeFrom(line, at + 1, out);
}

bool
jsonFindU64(const std::string &line, const std::string &key,
            std::uint64_t &out)
{
    const auto at = valueStart(line, key);
    if (at == std::string::npos || at >= line.size())
        return false;
    const char *digits = line.c_str() + at;
    char *end = nullptr;
    out = std::strtoull(digits, &end, 10);
    return end != digits;
}

bool
jsonFindArray(const std::string &line, const std::string &key,
              std::vector<std::size_t> &out)
{
    out.clear();
    auto at = valueStart(line, key);
    if (at == std::string::npos || at >= line.size() ||
        line[at] != '[')
        return false;
    ++at;
    if (at < line.size() && line[at] == ']')
        return true; // empty array
    for (;;) {
        const char *digits = line.c_str() + at;
        char *end = nullptr;
        const unsigned long long v = std::strtoull(digits, &end, 10);
        if (end == digits)
            return false;
        out.push_back(static_cast<std::size_t>(v));
        at += static_cast<std::size_t>(end - digits);
        if (at >= line.size())
            return false; // unterminated array
        if (line[at] == ']')
            return true;
        if (line[at] != ',')
            return false;
        ++at;
    }
}

} // namespace microlib
