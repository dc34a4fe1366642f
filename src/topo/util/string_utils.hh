/**
 * @file
 * Small string parsing/formatting helpers shared across modules.
 */

#ifndef TOPO_UTIL_STRING_UTILS_HH
#define TOPO_UTIL_STRING_UTILS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace topo
{

/** Split on a delimiter; empty fields preserved. */
std::vector<std::string> split(const std::string &text, char delim);

/** Strip ASCII whitespace from both ends. */
std::string trim(const std::string &text);

/**
 * Parse a signed integer; throws TopoError naming @p what on failure.
 * Accepts an optional K/M/G suffix (powers of ten: 2K == 2000).
 */
std::int64_t parseInt(const std::string &text, const std::string &what);

/** Parse a double; throws TopoError naming @p what on failure. */
double parseDouble(const std::string &text, const std::string &what);

/**
 * Levenshtein edit distance between two strings. Used for the
 * "did you mean" hints on unknown command-line options.
 */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The first of @p candidates nearest to @p text by editDistance, or
 * "" when none is within @p max_distance. Backs the "did you mean"
 * hints on unknown options and algorithm names.
 */
std::string closestMatch(const std::string &text,
                         const std::vector<std::string> &candidates,
                         std::size_t max_distance);

} // namespace topo

#endif // TOPO_UTIL_STRING_UTILS_HH
