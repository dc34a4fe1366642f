#include "topo/util/string_utils.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "topo/util/error.hh"

namespace topo
{

std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> fields;
    std::string current;
    for (char ch : text) {
        if (ch == delim) {
            fields.push_back(current);
            current.clear();
        } else {
            current += ch;
        }
    }
    fields.push_back(current);
    return fields;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::int64_t
parseInt(const std::string &text, const std::string &what)
{
    const std::string s = trim(text);
    require(!s.empty(), what + ": empty integer");
    std::int64_t scale = 1;
    std::string digits = s;
    const char last = s.back();
    if (last == 'K' || last == 'k')
        scale = 1000;
    else if (last == 'M' || last == 'm')
        scale = 1000000;
    else if (last == 'G' || last == 'g')
        scale = 1000000000;
    if (scale != 1)
        digits = s.substr(0, s.size() - 1);
    char *endp = nullptr;
    const long long value = std::strtoll(digits.c_str(), &endp, 10);
    require(endp && *endp == '\0' && endp != digits.c_str(),
            what + ": malformed integer '" + text + "'");
    return static_cast<std::int64_t>(value) * scale;
}

double
parseDouble(const std::string &text, const std::string &what)
{
    const std::string s = trim(text);
    require(!s.empty(), what + ": empty number");
    char *endp = nullptr;
    const double value = std::strtod(s.c_str(), &endp);
    require(endp && *endp == '\0' && endp != s.c_str(),
            what + ": malformed number '" + text + "'");
    return value;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Single-row dynamic program; strings here are short option names.
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

std::string
closestMatch(const std::string &text,
             const std::vector<std::string> &candidates,
             std::size_t max_distance)
{
    std::string best;
    std::size_t best_distance = max_distance + 1;
    for (const std::string &candidate : candidates) {
        const std::size_t d = editDistance(text, candidate);
        if (d < best_distance) {
            best_distance = d;
            best = candidate;
        }
    }
    return best;
}

} // namespace topo
