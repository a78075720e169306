// PropertyValue: typing, total order, serialization, hashing. PropertyMap:
// key order, the inline/heap boundary, copies, moves and equality.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/property_value.h"

namespace neosi {
namespace {

TEST(PropertyValue, KindsAndAccessors) {
  EXPECT_TRUE(PropertyValue().is_null());
  EXPECT_TRUE(PropertyValue(true).is_bool());
  EXPECT_TRUE(PropertyValue(int64_t{5}).is_int());
  EXPECT_TRUE(PropertyValue(3.5).is_double());
  EXPECT_TRUE(PropertyValue("x").is_string());
  EXPECT_EQ(PropertyValue(false).AsBool(), false);
  EXPECT_EQ(PropertyValue(int64_t{-7}).AsInt(), -7);
  EXPECT_DOUBLE_EQ(PropertyValue(2.25).AsDouble(), 2.25);
  EXPECT_EQ(PropertyValue("abc").AsString(), "abc");
  // int literal convenience.
  EXPECT_TRUE(PropertyValue(5).is_int());
}

TEST(PropertyValue, TotalOrderAcrossKinds) {
  // null < bool < int < double < string (kind-major order).
  PropertyValue null_v;
  PropertyValue bool_v(true);
  PropertyValue int_v(int64_t{0});
  PropertyValue double_v(0.0);
  PropertyValue string_v("");
  EXPECT_LT(null_v, bool_v);
  EXPECT_LT(bool_v, int_v);
  EXPECT_LT(int_v, double_v);
  EXPECT_LT(double_v, string_v);
}

TEST(PropertyValue, OrderWithinKind) {
  EXPECT_LT(PropertyValue(int64_t{1}), PropertyValue(int64_t{2}));
  EXPECT_LT(PropertyValue(int64_t{-5}), PropertyValue(int64_t{0}));
  EXPECT_LT(PropertyValue(1.5), PropertyValue(2.5));
  EXPECT_LT(PropertyValue("abc"), PropertyValue("abd"));
  EXPECT_LT(PropertyValue(false), PropertyValue(true));
  EXPECT_EQ(PropertyValue("same"), PropertyValue("same"));
  EXPECT_NE(PropertyValue(int64_t{1}), PropertyValue(int64_t{2}));
}

TEST(PropertyValue, NanSortsLast) {
  const double nan = std::nan("");
  EXPECT_LT(PropertyValue(1e308), PropertyValue(nan));
  EXPECT_EQ(PropertyValue(nan).Compare(PropertyValue(nan)), 0);
}

TEST(PropertyValue, EncodeDecodeRoundTrip) {
  const PropertyValue values[] = {
      PropertyValue(),
      PropertyValue(true),
      PropertyValue(false),
      PropertyValue(int64_t{0}),
      PropertyValue(int64_t{-123456789}),
      PropertyValue(int64_t{INT64_MAX}),
      PropertyValue(0.0),
      PropertyValue(-1.5e300),
      PropertyValue(""),
      PropertyValue("short"),
      PropertyValue(std::string(10000, 'z')),
  };
  for (const PropertyValue& v : values) {
    std::string buf;
    v.EncodeTo(&buf);
    Slice input(buf);
    PropertyValue out;
    ASSERT_TRUE(PropertyValue::DecodeFrom(&input, &out).ok());
    EXPECT_EQ(out, v) << v.ToString();
    EXPECT_TRUE(input.empty());
  }
}

TEST(PropertyValue, DecodeRejectsGarbage) {
  PropertyValue out;
  Slice empty("", 0);
  EXPECT_TRUE(PropertyValue::DecodeFrom(&empty, &out).IsCorruption());
  std::string bad_kind = "\x7F";
  Slice bad(bad_kind);
  EXPECT_TRUE(PropertyValue::DecodeFrom(&bad, &out).IsCorruption());
  std::string truncated_int = "\x02\x01\x02";  // kInt + 3 bytes only.
  Slice trunc(truncated_int);
  EXPECT_TRUE(PropertyValue::DecodeFrom(&trunc, &out).IsCorruption());
}

TEST(PropertyValue, HashConsistentWithEquality) {
  EXPECT_EQ(PropertyValue("abc").Hash(), PropertyValue("abc").Hash());
  EXPECT_EQ(PropertyValue(int64_t{7}).Hash(), PropertyValue(int64_t{7}).Hash());
  // Different kinds with "same" value should not collide trivially.
  EXPECT_NE(PropertyValue(int64_t{0}).Hash(), PropertyValue(0.0).Hash());
}

TEST(PropertyValue, ToString) {
  EXPECT_EQ(PropertyValue().ToString(), "null");
  EXPECT_EQ(PropertyValue(true).ToString(), "true");
  EXPECT_EQ(PropertyValue(int64_t{42}).ToString(), "42");
  EXPECT_EQ(PropertyValue("hi").ToString(), "\"hi\"");
}

TEST(PropertyValue, ApproximateSizeGrowsWithStrings) {
  EXPECT_GT(PropertyValue(std::string(1000, 'a')).ApproximateSize(),
            PropertyValue(int64_t{1}).ApproximateSize() + 900);
}

std::vector<PropertyKeyId> KeysOf(const PropertyMap& map) {
  std::vector<PropertyKeyId> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  return keys;
}

// A map holding keys 1..n, key k mapped to a string long enough to live on
// the heap (so a leaked or double-freed value shows under ASan).
PropertyMap Filled(int n) {
  PropertyMap map;
  for (int k = n; k >= 1; --k) {
    map[k] = PropertyValue("value-of-key-" + std::to_string(k) +
                           "-padded-past-the-small-string-buffer");
  }
  return map;
}

constexpr size_t kInline = PropertyMap::kInlineCapacity;

TEST(PropertyMap, IteratesInKeyOrderWhateverTheInsertOrder) {
  PropertyMap map;
  for (PropertyKeyId key : {7u, 2u, 9u, 1u, 5u, 3u}) {
    map[key] = PropertyValue(static_cast<int64_t>(key * 10));
  }
  EXPECT_EQ(KeysOf(map), (std::vector<PropertyKeyId>{1, 2, 3, 5, 7, 9}));
  for (const auto& [key, value] : map) EXPECT_EQ(value.AsInt(), key * 10);
  map[5] = PropertyValue("replaced");  // Existing key: no new pair.
  EXPECT_EQ(map.size(), 6u);
  EXPECT_EQ(map.at(5), PropertyValue("replaced"));
  PropertyMap listed{{4, PropertyValue(1)}, {2, PropertyValue(2)},
                     {4, PropertyValue(3)}};
  EXPECT_EQ(KeysOf(listed), (std::vector<PropertyKeyId>{2, 4}));
  EXPECT_EQ(listed.at(4), PropertyValue(1)) << "first duplicate wins";
}

TEST(PropertyMap, CrossesTheInlineHeapBoundaryBothWays) {
  PropertyMap map;
  EXPECT_FALSE(map.spilled());
  for (size_t k = 1; k <= kInline; ++k) {
    map[static_cast<PropertyKeyId>(k)] = PropertyValue(std::to_string(k));
    EXPECT_FALSE(map.spilled()) << k << " pairs fit inline";
  }
  map[0] = PropertyValue("zero");  // Spills, inserting at the front.
  EXPECT_TRUE(map.spilled());
  for (PropertyKeyId k = kInline + 1; k <= 20; ++k) {
    map[k] = PropertyValue(std::to_string(k));
  }
  EXPECT_EQ(map.size(), 21u);
  EXPECT_EQ(map.at(0), PropertyValue("zero"));
  for (PropertyKeyId k = 1; k <= 20; ++k) {
    EXPECT_EQ(map.at(k), PropertyValue(std::to_string(k)));
  }
  // Erase back down: the pairs return inline once they fit.
  for (PropertyKeyId k = 20; k > kInline; --k) EXPECT_EQ(map.erase(k), 1u);
  EXPECT_EQ(map.size(), kInline + 1);
  EXPECT_TRUE(map.spilled());
  EXPECT_EQ(map.erase(0), 1u);
  EXPECT_FALSE(map.spilled());
  EXPECT_EQ(map.size(), kInline);
  for (PropertyKeyId k = 1; k <= kInline; ++k) {
    EXPECT_EQ(map.at(k), PropertyValue(std::to_string(k)));
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.spilled());
}

TEST(PropertyMap, FindCountAtAndEraseOfMissingKeys) {
  PropertyMap map = Filled(3);
  EXPECT_EQ(map.erase(42), 0u);
  EXPECT_EQ(map.erase(0), 0u);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.find(42), map.end());
  EXPECT_EQ(map.count(42), 0u);
  EXPECT_EQ(map.count(2), 1u);
  EXPECT_THROW(map.at(42), std::out_of_range);
  EXPECT_EQ(map.erase(2), 1u);
  EXPECT_EQ(map.erase(2), 0u);
  EXPECT_EQ(KeysOf(map), (std::vector<PropertyKeyId>{1, 3}));
  PropertyMap empty;
  EXPECT_EQ(empty.erase(1), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
}

TEST(PropertyMap, CopiesAndMovesOnEitherSideOfTheBoundary) {
  for (int n : {0, 1, static_cast<int>(kInline), static_cast<int>(kInline) + 1,
                9}) {
    SCOPED_TRACE(n);
    const PropertyMap original = Filled(n);
    PropertyMap copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.spilled(), static_cast<size_t>(n) > kInline);
    copy[100] = PropertyValue(1);  // The copy is independent.
    EXPECT_NE(copy, original);
    EXPECT_EQ(original.size(), static_cast<size_t>(n));

    PropertyMap moved(std::move(copy));
    EXPECT_EQ(moved.size(), static_cast<size_t>(n) + 1);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.at(100), PropertyValue(1));

    PropertyMap assigned = Filled(3);
    assigned = original;
    EXPECT_EQ(assigned, original);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), static_cast<size_t>(n) + 1);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

    // Self-assignment keeps the contents.
    PropertyMap& alias = assigned;
    assigned = alias;
    EXPECT_EQ(assigned.size(), static_cast<size_t>(n) + 1);
    assigned = std::move(alias);
    EXPECT_EQ(assigned.size(), static_cast<size_t>(n) + 1);
    EXPECT_EQ(assigned.at(100), PropertyValue(1));

    // A moved-from map is reusable.
    moved[5] = PropertyValue("again");
    EXPECT_EQ(moved.size(), 1u);
  }
}

TEST(PropertyMap, EqualityComparesKeysAndValuesInOrder) {
  EXPECT_EQ(PropertyMap(), PropertyMap());
  EXPECT_EQ(Filled(5), Filled(5));
  EXPECT_NE(Filled(5), Filled(4));
  PropertyMap a{{1, PropertyValue(1)}, {2, PropertyValue("two")}};
  PropertyMap b{{2, PropertyValue("two")}, {1, PropertyValue(1)}};
  EXPECT_EQ(a, b) << "insert order does not matter";
  b[2] = PropertyValue("TWO");
  EXPECT_NE(a, b) << "same keys, different value";
  PropertyMap c{{1, PropertyValue(1)}, {3, PropertyValue("two")}};
  EXPECT_NE(a, c) << "same values, different key";
}

}  // namespace
}  // namespace neosi
