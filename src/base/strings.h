// Small string and pathname helpers shared by the kernel, toolkit, and agents.
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace ia {

// Splits `text` on `separator`, omitting empty pieces when `keep_empty` is false.
std::vector<std::string> Split(std::string_view text, char separator, bool keep_empty = false);

// The number of non-empty pieces Split(text, separator) would return, counted
// in place without building them.
size_t CountFields(std::string_view text, char separator);

// Joins `pieces` with `separator` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view separator);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Pathname helpers. Paths use '/' separators; these are purely lexical.
namespace path {

// Splits a path into components ("a//b/" -> {"a", "b"}). Leading '/' is not a component.
std::vector<std::string> Components(std::string_view p);

// True if the path begins with '/'.
bool IsAbsolute(std::string_view p);

// Lexically normalizes: collapses "//", resolves "." but NOT ".." (namei handles dotdot
// against the real directory tree, as 4.3BSD does).
std::string LexicallyClean(std::string_view p);

// Returns the final component ("/a/b/c" -> "c", "/" -> "/").
std::string Basename(std::string_view p);

// Returns everything before the final component ("/a/b/c" -> "/a/b", "c" -> ".").
std::string Dirname(std::string_view p);

// Joins two paths with exactly one separator.
std::string JoinPath(std::string_view a, std::string_view b);

}  // namespace path
}  // namespace ia

#endif  // SRC_BASE_STRINGS_H_
