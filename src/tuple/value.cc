#include "tuple/value.h"

#include <charconv>
#include <cmath>
#include <cstring>

namespace tcq {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  const bool lnull = is_null();
  const bool rnull = other.is_null();
  if (lnull || rnull) {
    if (lnull && rnull) return 0;
    return lnull ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    // Exact path when both are int64 (avoids double rounding on big ints).
    if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
      const int64_t l = int64_value();
      const int64_t r = other.int64_value();
      return l < r ? -1 : (l > r ? 1 : 0);
    }
    const double l = AsDouble();
    const double r = other.AsDouble();
    return l < r ? -1 : (l > r ? 1 : 0);
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kBool: {
      const int l = bool_value() ? 1 : 0;
      const int r = other.bool_value() ? 1 : 0;
      return l - r;
    }
    case ValueType::kString:
      return string_value().compare(other.string_value()) < 0
                 ? -1
                 : (string_value() == other.string_value() ? 0 : 1);
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kBool:
      return bool_value() ? 0x517CC1B7u : 0x27220A95u;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash through the double image so cross-type equal values collide.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;  // Collapse -0.0 and +0.0.
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      // splitmix64 finalizer: std::hash<uint64_t> is the identity on
      // common stdlibs, which makes small integers collide modulo any
      // power of two (partitioners take hash % N).
      bits = (bits ^ (bits >> 30)) * 0xBF58476D1CE4E5B9ULL;
      bits = (bits ^ (bits >> 27)) * 0x94D049BB133111EBULL;
      return static_cast<size_t>(bits ^ (bits >> 31));
    }
    case ValueType::kString:
      return std::hash<std::string>{}(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return bool_value() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(int64_value());
    case ValueType::kDouble: {
      // The shortest form that parses back to the same double.
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof(buf), double_value()).ptr;
      return std::string(buf, end);
    }
    case ValueType::kString:
      return "'" + string_value() + "'";
  }
  return "?";
}

}  // namespace tcq
