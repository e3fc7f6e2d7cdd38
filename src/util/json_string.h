// The one JSON string codec: the engine's JSON values, the campaign journal,
// the fleet STATUS lines and the Chrome trace export all quote and unquote
// strings through these two functions, so every writer escapes a byte the
// same way and every reader decodes what the writers produce.
#ifndef SRC_UTIL_JSON_STRING_H_
#define SRC_UTIL_JSON_STRING_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace soft {

// Appends `s` to `out` as a quoted JSON string literal: '"' and '\\' are
// backslash-escaped, \n \t \r use their short escapes, every other byte
// below 0x20 becomes \u00XX, and all other bytes (UTF-8 included) pass
// through unchanged.
void EscapeJsonString(std::string_view s, std::string& out);

// EscapeJsonString into a fresh string.
std::string JsonQuote(std::string_view s);

// Decodes the JSON string literal whose opening '"' is at text[pos]. On
// success `pos` is one past the closing '"'. Handles every JSON escape;
// \uXXXX is encoded as UTF-8 (BMP only; surrogates pass through raw).
Result<std::string> DecodeJsonString(std::string_view text, size_t& pos);

}  // namespace soft

#endif  // SRC_UTIL_JSON_STRING_H_
