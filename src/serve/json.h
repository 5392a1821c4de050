// Minimal JSON value, parser and serializer for the serve protocol.
//
// The daemon speaks newline-delimited JSON over a Unix socket; the
// payloads are tiny (a deck string, a handful of option scalars, the
// registry counters), so a small self-contained implementation beats an
// external dependency.  Objects keep their members in sorted key order
// (std::map), which makes dump() deterministic -- tests compare whole
// response lines byte-for-byte.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace msim::serve {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}              // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}                 // NOLINT
  Json(long l) : type_(Type::kNumber), num_(static_cast<double>(l)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}         // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool(bool fallback = false) const {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return type_ == Type::kNumber ? num_ : fallback;
  }
  const std::string& as_string() const { return str_; }

  // Object access.  operator[] on a const object returns a shared null
  // for missing keys, so option lookups read naturally:
  //   req["options"]["mc"].as_number(0)
  const Json& operator[](const std::string& key) const;
  Json& set(const std::string& key, Json v);

  // Array access.
  Json& push(Json v);
  const std::vector<Json>& items() const { return arr_; }

  // Serializes on one line (no whitespace).  Numbers print as integers
  // when exactly integral, shortest-round-trip otherwise.
  std::string dump() const;

  // Parses one JSON document.  Returns a null value and sets *err on
  // malformed input or nesting deeper than 128 levels (err may be
  // null).
  static Json parse(const std::string& text, std::string* err = nullptr);

 private:
  // Appends the serialization: the whole tree writes one buffer.
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::map<std::string, Json> obj_;
  std::vector<Json> arr_;
};

}  // namespace msim::serve
