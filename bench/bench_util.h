/**
 * @file
 * Shared helpers for the bench binaries: banner formatting and strict
 * parsing of numeric command-line values.
 */

#ifndef UFC_BENCH_BENCH_UTIL_H
#define UFC_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

namespace ufc {
namespace bench {

inline void
header(const std::string &title, const std::string &paperRef)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(reproduces %s)\n", paperRef.c_str());
    std::printf("==================================================="
                "===========================\n");
}

inline void
footnote(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

/** Numeric option `flag` parsed whole as a T in [lo, hi]; any other
 *  text (empty, trailing characters, out of range, a sign on an unsigned
 *  T, which the stream would wrap) is a usage error and exits 2. */
template <typename T>
T
numArg(const std::string &flag, const char *text, T lo,
       T hi = std::numeric_limits<T>::max())
{
    std::istringstream in(text);
    T v{};
    const bool signedText = text[0] == '-' || text[0] == '+';
    if ((std::is_unsigned_v<T> && signedText) || !(in >> v) || !in.eof() ||
        v < lo || v > hi) {
        std::cerr << flag << ": expected a number >= " << lo;
        if (hi != std::numeric_limits<T>::max())
            std::cerr << " and <= " << hi;
        std::cerr << ", got '" << text << "'\n";
        std::exit(2);
    }
    return v;
}

} // namespace bench
} // namespace ufc

#endif // UFC_BENCH_BENCH_UTIL_H
