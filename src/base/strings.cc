#include "src/base/strings.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace ia {

std::vector<std::string> Split(std::string_view text, char separator, bool keep_empty) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(separator, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view piece = text.substr(start, end - start);
    if (keep_empty || !piece.empty()) {
      pieces.emplace_back(piece);
    }
    if (end == text.size()) {
      break;
    }
    start = end + 1;
  }
  return pieces;
}

size_t CountFields(std::string_view text, char separator) {
  size_t fields = 0;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = std::min(text.find(separator, start), text.size());
    if (end > start) {
      ++fields;
    }
    start = end + 1;
  }
  return fields;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) {
      out.append(separator);
    }
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string StringPrintf(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  int needed = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), format, ap_copy);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(ap_copy);
  return out;
}

namespace path {

std::vector<std::string> Components(std::string_view p) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(p, '/')) {
    out.push_back(piece);
  }
  return out;
}

bool IsAbsolute(std::string_view p) { return !p.empty() && p.front() == '/'; }

std::string LexicallyClean(std::string_view p) {
  if (p.empty()) {
    return "";
  }
  const bool absolute = IsAbsolute(p);
  std::vector<std::string> kept;
  for (const std::string& piece : Split(p, '/')) {
    if (piece == ".") {
      continue;
    }
    kept.push_back(piece);
  }
  std::string joined = Join(kept, "/");
  if (absolute) {
    return "/" + joined;
  }
  return joined.empty() ? std::string(".") : joined;
}

std::string Basename(std::string_view p) {
  if (p == "/") {
    return "/";
  }
  while (!p.empty() && p.back() == '/') {
    p.remove_suffix(1);
  }
  if (p.empty()) {
    return "/";
  }
  size_t slash = p.rfind('/');
  if (slash == std::string_view::npos) {
    return std::string(p);
  }
  return std::string(p.substr(slash + 1));
}

std::string Dirname(std::string_view p) {
  while (p.size() > 1 && p.back() == '/') {
    p.remove_suffix(1);
  }
  size_t slash = p.rfind('/');
  if (slash == std::string_view::npos) {
    return ".";
  }
  // Drop the separator run before the final component ("a//b" from "a//b///c").
  while (slash > 0 && p[slash - 1] == '/') {
    --slash;
  }
  if (slash == 0) {
    return "/";
  }
  return std::string(p.substr(0, slash));
}

std::string JoinPath(std::string_view a, std::string_view b) {
  if (a.empty()) {
    return std::string(b);
  }
  if (b.empty()) {
    return std::string(a);
  }
  std::string out(a);
  if (out.back() == '/' && b.front() == '/') {
    out.pop_back();
  } else if (out.back() != '/' && b.front() != '/') {
    out.push_back('/');
  }
  out.append(b);
  return out;
}

}  // namespace path
}  // namespace ia
