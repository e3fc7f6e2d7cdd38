#include "src/util/json_string.h"

#include <charconv>
#include <cstdio>

namespace soft {

void EscapeJsonString(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  EscapeJsonString(s, out);
  return out;
}

Result<std::string> DecodeJsonString(std::string_view text, size_t& pos) {
  ++pos;  // consume '"'
  std::string out;
  while (pos < text.size()) {
    const char c = text[pos++];
    if (c == '"') {
      return out;
    }
    if (c == '\\') {
      if (pos >= text.size()) {
        break;
      }
      const char esc = text[pos++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos + 4 > text.size()) {
            return InvalidArgument("truncated \\u escape in JSON string");
          }
          unsigned code = 0;
          auto [p, ec] = std::from_chars(text.data() + pos, text.data() + pos + 4,
                                         code, 16);
          if (ec != std::errc() || p != text.data() + pos + 4) {
            return InvalidArgument("malformed \\u escape in JSON string");
          }
          pos += 4;
          // Encode as UTF-8 (BMP only; surrogates passed through raw).
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
          return InvalidArgument("invalid escape in JSON string");
      }
    } else {
      out.push_back(c);
    }
  }
  return InvalidArgument("unterminated JSON string");
}

}  // namespace soft
