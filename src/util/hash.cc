/**
 * @file
 * FNV-1a hashing implementation.
 */

#include "util/hash.hh"

#include <algorithm>
#include <cstring>

namespace mprobe
{

uint64_t
hashBytes(const void *data, size_t len, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

namespace
{

/** hashBytesLanes for a fixed lane count: the states stay in
 * registers across the byte loop. */
template <size_t N>
void
lanesOf(const unsigned char *p, size_t len, uint64_t *h)
{
    uint64_t s[N];
    for (size_t k = 0; k < N; ++k)
        s[k] = h[k];
    for (size_t i = 0; i < len; ++i)
        for (size_t k = 0; k < N; ++k)
            s[k] = (s[k] ^ p[i]) * kFnvPrime;
    for (size_t k = 0; k < N; ++k)
        h[k] = s[k];
}

} // namespace

void
hashBytesLanes(const void *data, size_t len, uint64_t *h,
               size_t lanes)
{
    static_assert(kHashLanes == 8, "one lanesOf case per count");
    const auto *p = static_cast<const unsigned char *>(data);
    while (lanes > 0) {
        size_t n = std::min(lanes, kHashLanes);
        switch (n) {
          case 1: h[0] = hashBytes(p, len, h[0]); break;
          case 2: lanesOf<2>(p, len, h); break;
          case 3: lanesOf<3>(p, len, h); break;
          case 4: lanesOf<4>(p, len, h); break;
          case 5: lanesOf<5>(p, len, h); break;
          case 6: lanesOf<6>(p, len, h); break;
          case 7: lanesOf<7>(p, len, h); break;
          default: lanesOf<8>(p, len, h); break;
        }
        h += n;
        lanes -= n;
    }
}

uint64_t
hashStr(const std::string &s)
{
    return hashBytes(s.data(), s.size());
}

uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    // Feed b's bytes into a as an FNV continuation, then avalanche
    // (splitmix64 finalizer) so similar inputs spread apart.
    uint64_t h = hashBytes(&b, sizeof b, a ^ kFnvOffset);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

Hasher &
Hasher::add(uint64_t v)
{
    h = hashBytes(&v, sizeof v, h);
    return *this;
}

Hasher &
Hasher::add(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0
    uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Hasher &
Hasher::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    h = hashBytes(s.data(), s.size(), h);
    return *this;
}

} // namespace mprobe
