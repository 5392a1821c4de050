// The JSON string escaper of serve::Json, lint_json and range_json:
// '"', '\\', \n, \r, \t by name, other bytes < 0x20 as \u00XX, the rest
// verbatim.  Each run of bytes that needs no escape is one append.
#pragma once

#include <string>
#include <string_view>

namespace msim::core {

inline void append_json_escaped(std::string& out, std::string_view s) {
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p < end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(run, p);
    run = p + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xF];
    }
  }
  out.append(run, end);
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

}  // namespace msim::core
