// The one number-to-text path of everything msim prints: deck job
// output, op reports, value-range and lint messages, JSON documents and
// CSV tables.  Numbers go through std::to_chars, whose (general, p) and
// (fixed, p) forms the standard defines as printf's "%.<p>g" and
// "%.<p>f" in the C locale, so the bytes are printf's without its
// format parsing, varargs and locale lookups.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

namespace msim::core {

// Widest "%.<p>f" accepted: sign, the 309 integer digits of DBL_MAX,
// the point and up to 17 decimals fit the fixed-form buffer.
inline constexpr int kMaxFixedPrecision = 17;

// Appends one to_chars result; a precision too wide for the caller's
// buffer leaves no valid text, so it throws rather than append garbage.
inline void append_chars(std::string& out, const char* buf,
                         std::to_chars_result r) {
  if (r.ec != std::errc{})
    throw std::length_error("text writer: precision too wide");
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

// printf's "%.<prec>g", prec <= 17.
inline void append_general(std::string& out, double v, int prec = 6) {
  char buf[32];  // "-d.<16 digits>e-308" at the widest
  append_chars(out, buf,
               std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general, prec));
}

// printf's "%.<prec>f", prec <= kMaxFixedPrecision.
inline void append_fixed(std::string& out, double v, int prec) {
  char buf[std::numeric_limits<double>::max_exponent10 + 3 +
           kMaxFixedPrecision];
  append_chars(out, buf,
               std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::fixed, prec));
}

// printf's "%d" / "%ld" / "%zu".
inline void append_int(std::string& out, std::integral auto v) {
  char buf[24];
  append_chars(out, buf, std::to_chars(buf, buf + sizeof buf, v));
}

// Appends text and numbers into one string.  `Self` is the derived
// writer, so its own helpers chain with these (op_report's tables);
// plain callers use TextWriter.
template <typename Self>
class BasicTextWriter {
 public:
  Self& add(std::string_view t) {
    s_ += t;
    return self();
  }
  Self& add(char c) {
    s_ += c;
    return self();
  }
  Self& num(double v, int prec = 6) {
    append_general(s_, v, prec);
    return self();
  }
  Self& fixed(double v, int prec) {
    append_fixed(s_, v, prec);
    return self();
  }
  Self& integer(std::integral auto v) {
    append_int(s_, v);
    return self();
  }

  std::string take() { return std::move(s_); }

 protected:
  std::string s_;

 private:
  Self& self() { return static_cast<Self&>(*this); }
};

class TextWriter final : public BasicTextWriter<TextWriter> {};

}  // namespace msim::core
