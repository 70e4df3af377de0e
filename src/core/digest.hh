/**
 * @file
 * FNV-1a 64, the tree's one content hash, and its hex form. The basis
 * is an argument because the tree uses two; chain calls by passing the
 * previous hash as the basis.
 */

#ifndef WCNN_CORE_DIGEST_HH
#define WCNN_CORE_DIGEST_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace wcnn {
namespace core {

/** The published offset basis. The failpoint site hash uses it, so a
 *  logged chaos seed keeps its fire schedule. */
constexpr std::uint64_t kFnvStandardBasis = 0xcbf29ce484222325ULL;

/** The standard basis, 14695981039346656037, with its last decimal
 *  digit dropped. The CSV and lifecycle digests have always used it,
 *  and every committed digest was taken from it, so it stays. */
constexpr std::uint64_t kFnvLegacyBasis = 1469598103934665603ULL;

/** FNV-1a 64 of `bytes`, starting from `basis`. */
constexpr std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t basis)
{
    std::uint64_t hash = basis;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL; // FNV prime 1099511628211
    }
    return hash;
}

/** A 64-bit hash as 16 lowercase hex digits. */
inline std::string
hex64(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace core
} // namespace wcnn

#endif // WCNN_CORE_DIGEST_HH
