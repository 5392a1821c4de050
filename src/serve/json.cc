#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "core/json_escape.h"
#include "core/text_writer.h"

namespace msim::serve {
namespace {

const Json& null_json() {
  static const Json n;
  return n;
}

void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  core::append_json_escaped(out, s);
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
    for (;;) {
      // Copy the run up to the next quote or backslash in one append.
      const char* run = p;
      while (p < end && *p != '"' && *p != '\\') ++p;
      out.append(run, p);
      if (p >= end || *p == '"') break;
      ++p;  // the backslash
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

  bool literal(std::string_view word, Json value, Json& out) {
    if (std::string_view(p, static_cast<std::size_t>(end - p))
            .substr(0, word.size()) != word)
      return fail("bad literal");
    p += word.size();
    out = std::move(value);
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
      case 't': return literal("true", Json(true), out);
      case 'f': return literal("false", Json(false), out);
      case 'n': return literal("null", Json(), out);
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
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      if (std::isfinite(num_) && num_ == std::floor(num_) &&
          std::fabs(num_) < 1e15) {
        core::append_fixed(out, num_, 0);
      } else if (std::isfinite(num_)) {
        core::append_general(out, num_, 17);
      } else {
        out += "null";  // JSON has no inf/nan
      }
      break;
    case Type::kString:
      append_quoted(out, str_);
      break;
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        append_quoted(out, k);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out.push_back(',');
        arr_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
  }
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
