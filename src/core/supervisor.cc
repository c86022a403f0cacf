#include "core/supervisor.hh"

#include <unistd.h>

#include <cstdlib>

namespace microlib
{

bool
ProgressStreamFollower::parseHeartbeat(const std::string &line,
                                       std::size_t &task)
{
    if (line.find("\"event\":\"heartbeat\"") == std::string::npos)
        return false;
    const std::string key = "\"task\":";
    const auto at = line.find(key);
    if (at == std::string::npos)
        return false;
    const char *digits = line.c_str() + at + key.size();
    char *end = nullptr;
    const unsigned long long v = std::strtoull(digits, &end, 10);
    if (end == digits)
        return false;
    task = static_cast<std::size_t>(v);
    return true;
}

void
ProgressStreamFollower::feed(const char *data, std::size_t n)
{
    _buf.append(data, n);
    // Surface every completed line; the unterminated tail stays
    // buffered (it may be half a line — the next chunk finishes it,
    // or EOF orphans it).
    std::size_t start = 0;
    for (;;) {
        const auto nl = _buf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = _buf.substr(start, nl - start);
        start = nl + 1;
        if (line.empty())
            continue;
        std::size_t task;
        if (parseHeartbeat(line, task)) {
            _has_task = true;
            _task = task;
        }
        _lines.push_back(std::move(line));
    }
    if (start > 0)
        _buf.erase(0, start);
}

int
ProgressStreamFollower::feedFd(int fd)
{
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0)
        feed(chunk, static_cast<std::size_t>(n));
    return static_cast<int>(n);
}

std::vector<std::string>
ProgressStreamFollower::takeLines()
{
    std::vector<std::string> out;
    out.swap(_lines);
    return out;
}

bool
ProgressStreamFollower::lastHeartbeatTask(std::size_t &task) const
{
    if (!_has_task)
        return false;
    task = _task;
    return true;
}

void
ProgressStreamFollower::reset()
{
    _buf.clear();
    _lines.clear();
    _has_task = false;
    _task = 0;
}

SupervisionVerdict
SweepSupervisor::decide(const WorkerFailure &failure)
{
    SupervisionVerdict verdict;
    const char *how = failure.stalled ? "stalled" : "died";

    // Strikes come before the retry budget: if this failure tips the
    // blamed task into quarantine, the restart is free — the thing
    // that was killing the worker is gone, so the host-health budget
    // should not be charged for it (and is reset outright, so a
    // worker that burned retries on a poison task gets its full
    // budget back for the rest of the plan).
    if (failure.has_task && _policy.quarantine_strikes > 0 &&
        !isQuarantined(failure.task)) {
        const std::size_t strikes = ++_strikes[failure.task];
        if (strikes >= _policy.quarantine_strikes) {
            _quarantined.push_back(failure.task);
            _retries[failure.worker] = 0;
            verdict.action = SupervisionVerdict::Action::Restart;
            verdict.quarantined = true;
            verdict.task = failure.task;
            verdict.delay_s = 0.0;
            verdict.why = "worker " + std::to_string(failure.worker) +
                          " " + how + " (" + failure.detail +
                          "); task " + std::to_string(failure.task) +
                          " quarantined after " +
                          std::to_string(strikes) + " strikes";
            return verdict;
        }
    }

    const std::size_t retries = ++_retries[failure.worker];
    if (retries > _policy.max_worker_retries) {
        verdict.action = SupervisionVerdict::Action::GiveUp;
        verdict.why = "worker " + std::to_string(failure.worker) +
                      " " + how + " (" + failure.detail + "); retry " +
                      "budget of " +
                      std::to_string(_policy.max_worker_retries) +
                      " exhausted";
        return verdict;
    }

    double delay = _policy.backoff_initial_s;
    for (std::size_t i = 1; i < retries; ++i)
        delay *= 2.0;
    if (delay > _policy.backoff_max_s)
        delay = _policy.backoff_max_s;

    verdict.action = SupervisionVerdict::Action::Restart;
    verdict.delay_s = delay;
    verdict.why = "worker " + std::to_string(failure.worker) + " " +
                  how + " (" + failure.detail + "); restart " +
                  std::to_string(retries) + "/" +
                  std::to_string(_policy.max_worker_retries);
    return verdict;
}

bool
SweepSupervisor::isQuarantined(std::size_t task) const
{
    for (const std::size_t q : _quarantined)
        if (q == task)
            return true;
    return false;
}

std::size_t
SweepSupervisor::retries(std::size_t worker) const
{
    const auto it = _retries.find(worker);
    return it == _retries.end() ? 0 : it->second;
}

} // namespace microlib
