#include "common/property_value.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <tuple>

#include "common/coding.h"

namespace neosi {

std::string_view ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
  }
  return "unknown";
}

std::string PropertyValue::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case ValueKind::kString:
      return "\"" + AsString() + "\"";
  }
  return "?";
}

void PropertyValue::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(kind()));
  switch (kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      dst->push_back(AsBool() ? 1 : 0);
      break;
    case ValueKind::kInt:
      PutFixed64(dst, static_cast<uint64_t>(AsInt()));
      break;
    case ValueKind::kDouble: {
      uint64_t bits;
      double d = AsDouble();
      memcpy(&bits, &d, sizeof(bits));
      PutFixed64(dst, bits);
      break;
    }
    case ValueKind::kString:
      PutLengthPrefixedSlice(dst, Slice(AsString()));
      break;
  }
}

Status PropertyValue::DecodeFrom(Slice* input, PropertyValue* out) {
  if (input->empty()) {
    return Status::Corruption("property value: empty input");
  }
  const auto kind = static_cast<ValueKind>((*input)[0]);
  input->remove_prefix(1);
  switch (kind) {
    case ValueKind::kNull:
      *out = PropertyValue();
      return Status::OK();
    case ValueKind::kBool: {
      if (input->empty()) return Status::Corruption("bool underflow");
      *out = PropertyValue((*input)[0] != 0);
      input->remove_prefix(1);
      return Status::OK();
    }
    case ValueKind::kInt: {
      uint64_t v;
      if (!GetFixed64(input, &v)) return Status::Corruption("int underflow");
      *out = PropertyValue(static_cast<int64_t>(v));
      return Status::OK();
    }
    case ValueKind::kDouble: {
      uint64_t bits;
      if (!GetFixed64(input, &bits)) {
        return Status::Corruption("double underflow");
      }
      double d;
      memcpy(&d, &bits, sizeof(d));
      *out = PropertyValue(d);
      return Status::OK();
    }
    case ValueKind::kString: {
      Slice s;
      if (!GetLengthPrefixedSlice(input, &s)) {
        return Status::Corruption("string underflow");
      }
      *out = PropertyValue(s.ToString());
      return Status::OK();
    }
  }
  return Status::Corruption("property value: bad kind byte");
}

int PropertyValue::Compare(const PropertyValue& other) const {
  if (kind() != other.kind()) {
    return kind() < other.kind() ? -1 : +1;
  }
  switch (kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool: {
      const int a = AsBool(), b = other.AsBool();
      return a - b;
    }
    case ValueKind::kInt: {
      const int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? +1 : 0);
    }
    case ValueKind::kDouble: {
      const double a = AsDouble(), b = other.AsDouble();
      const bool na = std::isnan(a), nb = std::isnan(b);
      if (na || nb) {
        if (na && nb) return 0;
        return na ? +1 : -1;  // NaN sorts last.
      }
      return a < b ? -1 : (a > b ? +1 : 0);
    }
    case ValueKind::kString:
      return Slice(AsString()).compare(Slice(other.AsString()));
  }
  return 0;
}

size_t PropertyValue::Hash() const {
  const size_t kind_seed =
      0x9E3779B97F4A7C15ULL * (static_cast<size_t>(kind()) + 1);
  switch (kind()) {
    case ValueKind::kNull:
      return kind_seed;
    case ValueKind::kBool:
      return kind_seed ^ std::hash<bool>{}(AsBool());
    case ValueKind::kInt:
      return kind_seed ^ std::hash<int64_t>{}(AsInt());
    case ValueKind::kDouble: {
      double d = AsDouble();
      if (std::isnan(d)) return kind_seed ^ 0xDEADBEEF;
      return kind_seed ^ std::hash<double>{}(d);
    }
    case ValueKind::kString:
      return kind_seed ^ std::hash<std::string>{}(AsString());
  }
  return kind_seed;
}

size_t PropertyValue::ApproximateSize() const {
  size_t base = sizeof(PropertyValue);
  if (is_string()) base += AsString().capacity();
  return base;
}

PropertyMap::PropertyMap(std::initializer_list<value_type> init) {
  for (const value_type& pair : init) {
    if (find(pair.first) == end()) (*this)[pair.first] = pair.second;
  }
}

PropertyMap::PropertyMap(const PropertyMap& other) {
  if (other.size_ > kInlineCapacity) {
    heap_ = static_cast<value_type*>(
        ::operator new(other.size_ * sizeof(value_type)));
    heap_capacity_ = other.size_;
  }
  value_type* d = data();
  for (const value_type& pair : other) new (d + size_++) value_type(pair);
}

PropertyMap::PropertyMap(PropertyMap&& other) noexcept { StealFrom(other); }

PropertyMap& PropertyMap::operator=(const PropertyMap& other) {
  if (this != &other) *this = PropertyMap(other);
  return *this;
}

PropertyMap& PropertyMap::operator=(PropertyMap&& other) noexcept {
  if (this != &other) {
    Reset();
    StealFrom(other);
  }
  return *this;
}

void PropertyMap::StealFrom(PropertyMap& other) noexcept {
  if (other.heap_ != nullptr) {
    heap_ = std::exchange(other.heap_, nullptr);
    heap_capacity_ = std::exchange(other.heap_capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    return;
  }
  value_type* from = other.inline_data();
  value_type* to = inline_data();
  for (; size_ < other.size_; ++size_) {
    new (to + size_) value_type(std::move(from[size_]));
  }
  other.Reset();
}

void PropertyMap::Reset() {
  value_type* d = data();
  for (uint32_t i = 0; i < size_; ++i) d[i].~value_type();
  size_ = 0;
  if (heap_ != nullptr) {
    ::operator delete(heap_);
    heap_ = nullptr;
    heap_capacity_ = 0;
  }
}

void PropertyMap::Relocate(size_t n) {
  value_type* from = data();
  value_type* fresh = inline_data();
  uint32_t fresh_capacity = 0;
  if (n > kInlineCapacity) {
    fresh_capacity = static_cast<uint32_t>(n);
    fresh = static_cast<value_type*>(
        ::operator new(fresh_capacity * sizeof(value_type)));
  }
  for (uint32_t i = 0; i < size_; ++i) {
    new (fresh + i) value_type(std::move(from[i]));
    from[i].~value_type();
  }
  if (heap_ != nullptr) ::operator delete(heap_);
  heap_ = fresh_capacity > 0 ? fresh : nullptr;
  heap_capacity_ = fresh_capacity;
}

PropertyValue& PropertyMap::at(PropertyKeyId key) {
  iterator it = find(key);
  if (it == end()) throw std::out_of_range("PropertyMap::at: no such key");
  return it->second;
}

PropertyValue& PropertyMap::operator[](PropertyKeyId key) {
  iterator it = LowerBound(key);
  if (it != end() && it->first == key) return it->second;
  const size_t pos = it - begin();
  if (size_ == capacity()) Relocate(2 * capacity());
  value_type* d = data();
  // Open a hole at `pos` by shifting the tail one slot up.
  if (pos < size_) {
    new (d + size_) value_type(std::move(d[size_ - 1]));
    std::move_backward(d + pos, d + size_ - 1, d + size_);
    d[pos].~value_type();
  }
  new (d + pos) value_type(std::piecewise_construct, std::forward_as_tuple(key),
                           std::forward_as_tuple());
  ++size_;
  return d[pos].second;
}

size_t PropertyMap::erase(PropertyKeyId key) {
  iterator it = find(key);
  if (it == end()) return 0;
  std::move(it + 1, end(), it);
  (end() - 1)->~value_type();
  --size_;
  if (heap_ != nullptr && size_ <= kInlineCapacity) Relocate(size_);
  return 1;
}

bool PropertyMap::operator==(const PropertyMap& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

}  // namespace neosi
