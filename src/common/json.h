/**
 * @file
 * Shared JSON string escaping and number formatting.
 *
 * Every JSON writer in the repo (runner reports, RunResult::toJson, the
 * metrics exposition, the sweep_all bench record) quotes
 * free-form text — labels, error messages, file paths — that can carry
 * quotes, backslashes and control characters.  This is the one escaping
 * implementation they all share, so a hostile trace name cannot corrupt
 * one writer's output while the others stay well-formed.
 */

#ifndef UFC_COMMON_JSON_H
#define UFC_COMMON_JSON_H

#include <cstdio>
#include <string>

namespace ufc {
namespace json {

/** Backslash-escape `s` for embedding inside a JSON string literal
 *  (no surrounding quotes). */
inline std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** `s` escaped and wrapped in double quotes — a complete JSON string. */
inline std::string
quote(const std::string &s)
{
    // Appended rather than `"\"" + escape(s)`: GCC 12 -O3 reports a
    // false -Wrestrict inside the inlined std::string::insert.
    std::string out = "\"";
    out += escape(s);
    out += '"';
    return out;
}

/** `v` as a JSON number; %.17g parses back to the same double. */
inline std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace json
} // namespace ufc

#endif // UFC_COMMON_JSON_H
