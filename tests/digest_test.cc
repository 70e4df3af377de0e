/**
 * @file
 * Known answers for the shared FNV-1a 64 (core/digest.hh).
 */

#include <gtest/gtest.h>

#include "core/digest.hh"

using wcnn::core::fnv1a64;
using wcnn::core::kFnvLegacyBasis;
using wcnn::core::kFnvStandardBasis;

TEST(DigestTest, StandardBasisGivesThePublishedVectors)
{
    EXPECT_EQ(fnv1a64("", kFnvStandardBasis), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a", kFnvStandardBasis), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar", kFnvStandardBasis),
              0x85944171f73967e8ULL);
    EXPECT_EQ(wcnn::core::hex64(0xaf63dc4c8601ec8cULL),
              "af63dc4c8601ec8c");
}

TEST(DigestTest, LegacyBasisChainsLikeOneHash)
{
    EXPECT_EQ(fnv1a64("a", kFnvLegacyBasis), 0x44bd8ad473cd9906ULL);
    EXPECT_EQ(fnv1a64("bar", fnv1a64("foo", kFnvLegacyBasis)),
              fnv1a64("foobar", kFnvLegacyBasis));
}
