// The dynamically-typed value attached to node / relationship properties.

#ifndef NEOSI_COMMON_PROPERTY_VALUE_H_
#define NEOSI_COMMON_PROPERTY_VALUE_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <utility>
#include <variant>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace neosi {

/// Runtime type tag of a PropertyValue.
enum class ValueKind : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
};

std::string_view ValueKindToString(ValueKind kind);

/// A property value: null, bool, int64, double, or string.
///
/// Values are totally ordered (by kind first, then by value within a kind) so
/// they can key the ordered property index used for range scans.
class PropertyValue {
 public:
  /// Null value.
  PropertyValue() : value_(std::monostate{}) {}
  PropertyValue(bool b) : value_(b) {}
  PropertyValue(int64_t i) : value_(i) {}
  PropertyValue(int i) : value_(static_cast<int64_t>(i)) {}
  PropertyValue(double d) : value_(d) {}
  PropertyValue(std::string s) : value_(std::move(s)) {}
  PropertyValue(const char* s) : value_(std::string(s)) {}

  ValueKind kind() const {
    return static_cast<ValueKind>(value_.index());
  }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }

  /// Typed accessors; calling the wrong one is a programming error (asserts).
  bool AsBool() const { return std::get<bool>(value_); }
  int64_t AsInt() const { return std::get<int64_t>(value_); }
  double AsDouble() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }

  /// Human-readable rendering ("null", "true", "42", "3.5", "\"abc\"").
  std::string ToString() const;

  /// Appends the serialized form (kind byte + payload) to *dst.
  void EncodeTo(std::string* dst) const;
  /// Parses a value from the front of *input, advancing it.
  static Status DecodeFrom(Slice* input, PropertyValue* out);

  /// Total order: kind first, then value. Doubles compare by value; NaN sorts
  /// after all other doubles.
  int Compare(const PropertyValue& other) const;

  bool operator==(const PropertyValue& o) const { return Compare(o) == 0; }
  bool operator!=(const PropertyValue& o) const { return Compare(o) != 0; }
  bool operator<(const PropertyValue& o) const { return Compare(o) < 0; }
  bool operator<=(const PropertyValue& o) const { return Compare(o) <= 0; }
  bool operator>(const PropertyValue& o) const { return Compare(o) > 0; }
  bool operator>=(const PropertyValue& o) const { return Compare(o) >= 0; }

  /// Stable hash consistent with operator==.
  size_t Hash() const;

  /// Approximate in-memory footprint in bytes (used by cache accounting and
  /// the persistence experiment E9).
  size_t ApproximateSize() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> value_;
};

/// Materialized property set of one entity: a flat array of (key, value)
/// pairs sorted by key id, for deterministic iteration and serialization.
/// The first kInlineCapacity pairs live inside the map itself, so a small
/// property set costs no allocation and a lookup reads no map node; a
/// larger set spills to one heap array, and moves back inline when erases
/// shrink it again. Keeps the std::map subset the engine uses.
class PropertyMap {
 public:
  using value_type = std::pair<PropertyKeyId, PropertyValue>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  /// Two pairs hold a social-graph person (name, age) or a relationship
  /// with one property inline; chosen by the read_mostly benchmark (see
  /// ARCHITECTURE.md, "Version layout and the token table").
  static constexpr size_t kInlineCapacity = 2;

  PropertyMap() noexcept {}
  /// Later duplicates of a key are ignored, as in std::map.
  PropertyMap(std::initializer_list<value_type> init);
  PropertyMap(const PropertyMap& other);
  PropertyMap(PropertyMap&& other) noexcept;
  PropertyMap& operator=(const PropertyMap& other);
  PropertyMap& operator=(PropertyMap&& other) noexcept;
  ~PropertyMap() { Reset(); }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True while the pairs live in the heap array (test hook).
  bool spilled() const { return heap_ != nullptr; }

  iterator find(PropertyKeyId key) {
    iterator it = LowerBound(key);
    return it != end() && it->first == key ? it : end();
  }
  const_iterator find(PropertyKeyId key) const {
    return const_cast<PropertyMap*>(this)->find(key);
  }
  size_t count(PropertyKeyId key) const { return find(key) != end() ? 1 : 0; }
  /// Throws std::out_of_range for a missing key, as std::map does.
  PropertyValue& at(PropertyKeyId key);
  const PropertyValue& at(PropertyKeyId key) const {
    return const_cast<PropertyMap*>(this)->at(key);
  }
  /// The value under `key`, inserting a null one first when absent.
  PropertyValue& operator[](PropertyKeyId key);
  /// Removes `key`; returns the number of pairs removed (0 or 1).
  size_t erase(PropertyKeyId key);
  void clear() { Reset(); }

  bool operator==(const PropertyMap& other) const;

 private:
  value_type* inline_data() {
    return std::launder(reinterpret_cast<value_type*>(inline_));
  }
  value_type* data() { return heap_ != nullptr ? heap_ : inline_data(); }
  const value_type* data() const {
    return const_cast<PropertyMap*>(this)->data();
  }
  size_t capacity() const {
    return heap_ != nullptr ? heap_capacity_ : kInlineCapacity;
  }
  iterator LowerBound(PropertyKeyId key) {
    return std::lower_bound(
        begin(), end(), key,
        [](const value_type& pair, PropertyKeyId k) { return pair.first < k; });
  }
  /// Moves the pairs into storage for at least `n` (heap past the inline
  /// capacity, inline otherwise).
  void Relocate(size_t n);
  /// Destroys every pair and frees the heap array: back to empty inline.
  void Reset();
  /// Move-constructs `other`'s pairs into this (empty) map; empties other.
  void StealFrom(PropertyMap& other) noexcept;

  value_type* heap_ = nullptr;
  uint32_t size_ = 0;
  uint32_t heap_capacity_ = 0;
  alignas(value_type) unsigned char inline_[kInlineCapacity *
                                            sizeof(value_type)];
};

}  // namespace neosi

namespace std {
template <>
struct hash<neosi::PropertyValue> {
  size_t operator()(const neosi::PropertyValue& v) const noexcept {
    return v.Hash();
  }
};
}  // namespace std

#endif  // NEOSI_COMMON_PROPERTY_VALUE_H_
