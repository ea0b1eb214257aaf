/**
 * @file
 * Small string utilities used by the definition-file parsers.
 */

#ifndef UTIL_STR_HH
#define UTIL_STR_HH

#include <string>
#include <vector>

namespace mprobe
{

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Split on arbitrary whitespace; empty fields are dropped. */
std::vector<std::string> splitWs(const std::string &s);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &s);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * Parse a decimal integer; calls fatal() with @p context on failure
 * so definition-file errors point at the offending field.
 */
long parseInt(const std::string &s, const std::string &context);

/** Parse a floating point number; fatal() with @p context on failure. */
double parseDouble(const std::string &s, const std::string &context);

/**
 * Round-trippable text of @p v: byte for byte what printf's "%.17g"
 * prints (so exports keep their bytes), without its cost.
 */
std::string formatDouble(double v);

} // namespace mprobe

#endif // UTIL_STR_HH
