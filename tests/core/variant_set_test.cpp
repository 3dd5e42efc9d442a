// VariantSet: the value type behind BenchConfig::variants and the
// --variant CLI filter (replaces the old bool-array + runs_variant pair).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/variant.h"

namespace tt {
namespace {

TEST(VariantSet, AllNoneOnly) {
  EXPECT_EQ(VariantSet::all().count(), static_cast<std::size_t>(kNumVariants));
  EXPECT_TRUE(VariantSet::none().empty());
  EXPECT_EQ(VariantSet::none().count(), 0u);
  VariantSet one = VariantSet::only(Variant::kRecLockstep);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_TRUE(one.contains(Variant::kRecLockstep));
  EXPECT_FALSE(one.contains(Variant::kAutoLockstep));
  for (Variant v : kAllVariants) EXPECT_TRUE(VariantSet::all().contains(v));
}

TEST(VariantSet, AddRemoveChain) {
  VariantSet s;
  s.add(Variant::kAutoLockstep).add(Variant::kAutoSelect);
  EXPECT_EQ(s.count(), 2u);
  s.add(Variant::kAutoLockstep);  // idempotent
  EXPECT_EQ(s.count(), 2u);
  s.remove(Variant::kAutoLockstep);
  EXPECT_EQ(s, VariantSet::only(Variant::kAutoSelect));
  s.remove(Variant::kAutoSelect);
  EXPECT_TRUE(s.empty());
}

TEST(VariantSet, FromNamesParsesCsv) {
  VariantSet s = VariantSet::from_names("auto_lockstep,rec_nolockstep");
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(Variant::kAutoLockstep));
  EXPECT_TRUE(s.contains(Variant::kRecNolockstep));
  EXPECT_FALSE(s.contains(Variant::kAutoSelect));
  EXPECT_EQ(VariantSet::from_names("all"), VariantSet::all());
  EXPECT_EQ(VariantSet::from_names("auto_select"),
            VariantSet::only(Variant::kAutoSelect));
}

TEST(VariantSet, FromNamesRejectsBadSpellings) {
  EXPECT_THROW((void)VariantSet::from_names(""), std::invalid_argument);
  EXPECT_THROW((void)VariantSet::from_names("lockstep"),
               std::invalid_argument);
  EXPECT_THROW((void)VariantSet::from_names("auto_lockstep,"),
               std::invalid_argument);
  EXPECT_THROW((void)VariantSet::from_names("auto_lockstep,,rec_lockstep"),
               std::invalid_argument);
}

TEST(VariantSet, IterationVisitsEnabledInEnumOrder) {
  VariantSet s = VariantSet::from_names("rec_lockstep,auto_nolockstep");
  std::vector<Variant> seen;
  for (Variant v : s) seen.push_back(v);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Variant::kAutoNolockstep);  // enum order, not CSV order
  EXPECT_EQ(seen[1], Variant::kRecLockstep);
  std::size_t n = 0;
  for (Variant v : VariantSet::all()) {
    EXPECT_EQ(v, kAllVariants[n]);
    ++n;
  }
  EXPECT_EQ(n, static_cast<std::size_t>(kNumVariants));
  for (Variant v : VariantSet::none()) {
    (void)v;
    ADD_FAILURE() << "empty set iterated";
  }
}

// The stackless family has exactly one spelling everywhere: the parser
// accepts it, the error listing advertises it (that listing is what the
// --variant flag and the serving/batch name plumbing surface to users),
// and GpuMode round-trips it.
TEST(VariantSet, StacklessSpellingsParseAndErrorListsAllEight) {
  EXPECT_EQ(variant_from_name("stackless_lockstep"),
            Variant::kStacklessLockstep);
  EXPECT_EQ(variant_from_name("stackless_nolockstep"),
            Variant::kStacklessNolockstep);
  EXPECT_EQ(variant_from_name("index_walk"), Variant::kIndexWalk);
  VariantSet s = VariantSet::from_names("stackless_lockstep,index_walk");
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(Variant::kStacklessLockstep));
  EXPECT_TRUE(s.contains(Variant::kIndexWalk));
  try {
    (void)variant_from_name("stackless");  // close, but not canonical
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (Variant v : kAllVariants)
      EXPECT_NE(msg.find(variant_name(v)), std::string::npos)
          << "error listing must include " << variant_name(v) << ": " << msg;
  }
  for (Variant v : {Variant::kStacklessLockstep, Variant::kStacklessNolockstep,
                    Variant::kIndexWalk}) {
    EXPECT_TRUE(variant_is_stackless(v));
    EXPECT_FALSE(variant_is_autoropes(v));
    EXPECT_EQ(GpuMode::from(v).variant, v);
    EXPECT_EQ(GpuMode::from(v).node_cache_bytes,
              GpuMode::kNodeCacheFreedStack);
  }
}

TEST(VariantSet, ToStringRoundTrips) {
  EXPECT_EQ(VariantSet::all().to_string(), "all");
  VariantSet s = VariantSet::from_names("auto_lockstep,rec_nolockstep");
  EXPECT_EQ(s.to_string(), "auto_lockstep,rec_nolockstep");
  EXPECT_EQ(VariantSet::from_names(s.to_string()), s);
  for (Variant v : kAllVariants) {
    VariantSet one = VariantSet::only(v);
    EXPECT_EQ(VariantSet::from_names(one.to_string()), one);
  }
}

}  // namespace
}  // namespace tt
