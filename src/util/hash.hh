/**
 * @file
 * Deterministic content hashing.
 *
 * One FNV-1a based hash used everywhere a stable 64-bit identity of
 * some content is needed: sensor-noise seeding, campaign result-cache
 * keys and parallel RNG stream derivation. Deliberately not
 * std::hash, whose values are unspecified across implementations —
 * cache files written on one platform must stay valid on another.
 */

#ifndef UTIL_HASH_HH
#define UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace mprobe
{

/** FNV-1a offset basis. */
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
/** FNV-1a prime. */
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over a byte range, continuing from @p h. */
uint64_t hashBytes(const void *data, size_t len,
                   uint64_t h = kFnvOffset);

/** Most states hashBytesLanes advances in one pass over the data. */
constexpr size_t kHashLanes = 8;

/**
 * FNV-1a of one byte range into @p lanes independent states: on
 * return h[i] == hashBytes(data, len, h[i]) for every i. The data
 * is read once per group of kHashLanes states and their chains are
 * independent, so a group costs about one multiply per byte and
 * lane at multiply throughput, where hashBytes pays the full
 * xor-multiply latency per byte.
 */
void hashBytesLanes(const void *data, size_t len, uint64_t *h,
                    size_t lanes);

/** FNV-1a of a string. */
uint64_t hashStr(const std::string &s);

/** Mix two hashes into one (order-sensitive). */
uint64_t hashCombine(uint64_t a, uint64_t b);

/**
 * Incremental hasher for structured content. Every add() feeds the
 * value's canonical byte representation, so the digest identifies
 * the full sequence of fields:
 *
 *     Hasher h;
 *     h.add(prog.name).add(cfg.cores).add(cfg.smt);
 *     uint64_t key = h.digest();
 */
class Hasher
{
  public:
    Hasher &add(uint64_t v);
    Hasher &add(int64_t v) { return add(static_cast<uint64_t>(v)); }
    Hasher &add(int v) { return add(static_cast<int64_t>(v)); }
    Hasher &add(bool v) { return add(static_cast<uint64_t>(v)); }
    /** Doubles hash by bit pattern; -0.0 is canonicalized to 0.0. */
    Hasher &add(double v);
    Hasher &add(float v) { return add(static_cast<double>(v)); }
    /** Strings hash length-prefixed so field boundaries matter. */
    Hasher &add(const std::string &s);

    uint64_t digest() const { return h; }

  private:
    uint64_t h = kFnvOffset;
};

} // namespace mprobe

#endif // UTIL_HASH_HH
