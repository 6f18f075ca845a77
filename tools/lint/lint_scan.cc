#include "lint_scan.h"

#include <fstream>
#include <sstream>

namespace tdac_lint {
namespace {

namespace fs = std::filesystem;

// Records `lint: <word>` waivers found in a comment.
void ParseWaivers(const std::string& comment, int line, FileScan* scan) {
  size_t pos = 0;
  while ((pos = comment.find("lint:", pos)) != std::string::npos) {
    pos += 5;
    while (pos < comment.size() && comment[pos] == ' ') ++pos;
    size_t end = pos;
    while (end < comment.size() &&
           (IsIdentChar(comment[end]) || comment[end] == '-')) {
      ++end;
    }
    if (end > pos) (*scan).waivers[line].insert(comment.substr(pos, end - pos));
    pos = end;
  }
}

// Produces a copy of `src` with comments, string/char literals, and
// preprocessor lines replaced by spaces (newlines preserved), harvesting
// waiver comments along the way.
std::string BlankNonCode(const std::string& src, FileScan* scan) {
  std::string out = src;
  const size_t n = src.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;   // only whitespace seen so far on this line
  bool pp_continues = false;   // previous line was a '\'-continued # line
  auto blank = [&](size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    // Preprocessor lines (and their continuations) are not code.
    if ((at_line_start && c == '#') || (at_line_start && pp_continues)) {
      pp_continues = false;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          pp_continues = true;
        }
        blank(i);
        ++i;
      }
      continue;
    }
    if (c != ' ' && c != '\t') at_line_start = false;
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t start = i;
      while (i < n && src[i] != '\n') {
        blank(i);
        ++i;
      }
      ParseWaivers(src.substr(start, i - start), line, scan);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t start = i;
      int start_line = line;
      blank(i);
      blank(i + 1);
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        blank(i);
        ++i;
      }
      if (i + 1 < n) {
        blank(i);
        blank(i + 1);
        i += 2;
      }
      ParseWaivers(src.substr(start, i - start), start_line, scan);
      continue;
    }
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      // Raw string literal R"delim( ... )delim".
      size_t d0 = i + 2;
      size_t dp = d0;
      while (dp < n && src[dp] != '(') ++dp;
      std::string close = ")";
      close.append(src, d0, dp - d0);
      close += '"';
      blank(i);
      ++i;
      while (i < n) {
        if (src.compare(i, close.size(), close) == 0) {
          for (size_t k = 0; k < close.size(); ++k) blank(i + k);
          i += close.size();
          break;
        }
        if (src[i] == '\n') ++line;
        blank(i);
        ++i;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      blank(i);
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          blank(i);
          ++i;
        }
        if (src[i] == '\n') break;  // unterminated; tolerate
        blank(i);
        ++i;
      }
      if (i < n && src[i] == quote) {
        blank(i);
        ++i;
      }
      continue;
    }
    ++i;
  }
  return out;
}

void Tokenize(const std::string& code, std::vector<Token>* tokens) {
  const size_t n = code.size();
  size_t i = 0;
  int line = 1;
  while (i < n) {
    char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(code[j])) ++j;
      tokens->push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c >= '0' && c <= '9') {
      size_t j = i;
      while (j < n && (IsIdentChar(code[j]) || code[j] == '.')) ++j;
      tokens->push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      tokens->push_back({"::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && code[i + 1] == '>') {
      tokens->push_back({"->", line});
      i += 2;
      continue;
    }
    tokens->push_back({std::string(1, c), line});
    ++i;
  }
}

}  // namespace

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeader(const std::string& rel) { return EndsWith(rel, ".h"); }

bool LoadFile(const fs::path& abs, const std::string& rel, FileScan* scan) {
  std::ifstream in(abs, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string src = ss.str();
  scan->rel_path = rel;
  std::string code = BlankNonCode(src, scan);
  Tokenize(code, &scan->tokens);
  return true;
}

bool Waived(const FileScan& scan, int line, const std::string& tag) {
  auto it = scan.waivers.find(line);
  if (it != scan.waivers.end() && it->second.count(tag) > 0) {
    scan.used_waivers.insert({line, tag});
    return true;
  }
  it = scan.waivers.find(line - 1);
  if (it != scan.waivers.end() && it->second.count(tag) > 0) {
    scan.used_waivers.insert({line - 1, tag});
    return true;
  }
  return false;
}

size_t SkipAngles(const std::vector<Token>& toks, size_t i) {
  if (i >= toks.size() || toks[i].text != "<") return i;
  int depth = 0;
  size_t j = i;
  while (j < toks.size()) {
    if (toks[j].text == "<") ++depth;
    if (toks[j].text == ">") {
      --depth;
      if (depth == 0) return j + 1;
    }
    // A template argument list never contains these at depth >= 1; bail
    // rather than swallow half the file on a stray comparison operator.
    if (toks[j].text == ";" || toks[j].text == "{") return i;
    ++j;
  }
  return i;
}

size_t SkipParens(const std::vector<Token>& toks, size_t open) {
  if (open >= toks.size() || toks[open].text != "(") return open;
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == "(") ++depth;
    if (toks[j].text == ")") {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return open;
}

size_t SkipBraces(const std::vector<Token>& toks, size_t open) {
  if (open >= toks.size() || toks[open].text != "{") return open;
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == "{") ++depth;
    if (toks[j].text == "}") {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return open;
}

}  // namespace tdac_lint
