#include "core/progress.hh"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "sim/logging.hh"

namespace microlib
{

std::string
ProgressEvent::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

ProgressEvent::ProgressEvent(const std::string &name)
    : ProgressEvent("event", name)
{
}

ProgressEvent::ProgressEvent(const char *key, const std::string &name)
{
    _os << "{\"" << key << "\":\"" << escape(name) << '"';
}

ProgressEvent &
ProgressEvent::field(const char *key, const std::string &value)
{
    _os << ",\"" << key << "\":\"" << escape(value) << '"';
    return *this;
}

ProgressEvent &
ProgressEvent::field(const char *key, const char *value)
{
    return field(key, std::string(value));
}

ProgressEvent &
ProgressEvent::field(const char *key, std::uint64_t value)
{
    _os << ",\"" << key << "\":" << value;
    return *this;
}

ProgressEvent &
ProgressEvent::field(const char *key, double value)
{
    // Fixed 3-decimal seconds: progress is telemetry, not results,
    // and a stable format keeps the stream easy to parse by hand.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    _os << ",\"" << key << "\":" << buf;
    return *this;
}

ProgressEvent &
ProgressEvent::field(const char *key,
                     const std::vector<std::size_t> &values)
{
    _os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            _os << ',';
        _os << values[i];
    }
    _os << ']';
    return *this;
}

std::string
ProgressEvent::str() const
{
    return _os.str() + "}";
}

ProgressWriter::ProgressWriter(const std::string &path)
{
    if (path.empty())
        return;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    _out.open(path, std::ios::trunc);
    if (!_out)
        warn("progress stream: cannot open ", path,
             "; progress reporting disabled");
}

ProgressWriter::ProgressWriter(int fd) : _fd(fd)
{
}

void
ProgressWriter::write(const ProgressEvent &event)
{
    writeLine(event.str());
}

bool
ProgressWriter::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_fd >= 0) {
        // One buffered line per write() so a reader reassembling the
        // stream sees at worst a torn tail, never interleaved lines
        // (the engine's workers share this writer across threads).
        const std::string out = line + '\n';
        std::size_t off = 0;
        while (off < out.size()) {
            const ssize_t n =
                ::write(_fd, out.data() + off, out.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                // Receiver hung up (the service died): every later
                // line is dropped too.
                _fd = -1;
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }
    if (!_out.is_open())
        return false;
    _out << line << '\n';
    _out.flush(); // pollers and tail -f see whole lines only
    return true;
}

} // namespace microlib
