#include "sim/random.hh"

#include <cmath>

namespace microlib
{

std::uint64_t
Rng::splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

Geometric::Geometric(double mean)
    : _always_one(mean <= 1.0), _denom(std::log1p(-(1.0 / mean)))
{
}

} // namespace microlib
