/**
 * @file
 * String utility implementations.
 */

#include "util/str.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "util/logging.hh"

namespace mprobe
{

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWs(const std::string &s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.push_back(s.substr(start, i - start));
    }
    return out;
}

std::string
toLower(const std::string &s)
{
    std::string out = s;
    for (auto &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

long
parseInt(const std::string &s, const std::string &context)
{
    char *end = nullptr;
    std::string t = trim(s);
    long v = std::strtol(t.c_str(), &end, 0);
    if (t.empty() || end == nullptr || *end != '\0')
        fatal(cat("expected integer, got '", s, "' in ", context));
    return v;
}

double
parseDouble(const std::string &s, const std::string &context)
{
    char *end = nullptr;
    std::string t = trim(s);
    double v = std::strtod(t.c_str(), &end);
    if (t.empty() || end == nullptr || *end != '\0')
        fatal(cat("expected number, got '", s, "' in ", context));
    return v;
}

std::string
formatDouble(double v)
{
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof buf, v,
                           std::chars_format::general, 17);
    return std::string(buf, r.ptr);
}

} // namespace mprobe
