#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace msim::serve {
namespace {

const Json& null_json() {
  static const Json n;
  return n;
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// Nesting cap: the parser recurses once per nested value, so an
// unbounded depth lets one request line (100 000 '[') overflow the
// connection thread's stack.  Protocol messages nest a few levels.
constexpr int kMaxDepth = 128;

struct Parser {
  const char* p;
  const char* end;
  std::string err;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }

  bool fail(const char* what) {
    if (err.empty()) err = what;
    return false;
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p >= end) return fail("bad escape");
      char e = *p++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (end - p < 4) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (the protocol only ever
          // escapes control characters, but be complete for the plane).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_value(Json& out) {
    if (depth == kMaxDepth) return fail("nesting too deep");
    ++depth;
    const bool ok = parse_any(out);
    --depth;
    return ok;
  }

  bool parse_any(Json& out) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case '{': {
        ++p;
        out = Json::object();
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':'");
          ++p;
          Json v;
          if (!parse_value(v)) return false;
          out.set(key, std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++p;
        out = Json::array();
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        for (;;) {
          Json v;
          if (!parse_value(v)) return false;
          out.push(std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't':
        if (end - p >= 4 && std::string_view(p, 4) == "true") {
          p += 4;
          out = Json(true);
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (end - p >= 5 && std::string_view(p, 5) == "false") {
          p += 5;
          out = Json(false);
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (end - p >= 4 && std::string_view(p, 4) == "null") {
          p += 4;
          out = Json();
          return true;
        }
        return fail("bad literal");
      default: {
        char* num_end = nullptr;
        const double v = std::strtod(p, &num_end);
        if (num_end == p) return fail("bad number");
        p = num_end;
        out = Json(v);
        return true;
      }
    }
  }
};

}  // namespace

const Json& Json::operator[](const std::string& key) const {
  if (type_ == Type::kObject) {
    auto it = obj_.find(key);
    if (it != obj_.end()) return it->second;
  }
  return null_json();
}

Json& Json::set(const std::string& key, Json v) {
  type_ = Type::kObject;
  obj_[key] = std::move(v);
  return *this;
}

Json& Json::push(Json v) {
  type_ = Type::kArray;
  arr_.push_back(std::move(v));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      char buf[32];
      if (std::isfinite(num_) && num_ == std::floor(num_) &&
          std::fabs(num_) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", num_);
      } else if (std::isfinite(num_)) {
        std::snprintf(buf, sizeof buf, "%.17g", num_);
      } else {
        std::snprintf(buf, sizeof buf, "null");  // JSON has no inf/nan
      }
      out = buf;
      break;
    }
    case Type::kString:
      append_escaped(out, str_);
      break;
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, k);
        out.push_back(':');
        out += v.dump();
      }
      out.push_back('}');
      break;
    }
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out.push_back(',');
        out += arr_[i].dump();
      }
      out.push_back(']');
      break;
    }
  }
  return out;
}

Json Json::parse(const std::string& text, std::string* err) {
  Parser ps{text.data(), text.data() + text.size(), {}};
  Json out;
  if (!ps.parse_value(out)) {
    if (err) *err = ps.err;
    return Json();
  }
  ps.skip_ws();
  if (ps.p != ps.end) {
    if (err) *err = "trailing characters";
    return Json();
  }
  return out;
}

}  // namespace msim::serve
