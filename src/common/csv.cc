#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>

namespace tdac {

namespace {

bool NeedsQuoting(std::string_view field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) buffer_ += delimiter_;
    const std::string& f = fields[i];
    if (NeedsQuoting(f, delimiter_)) {
      buffer_ += '"';
      for (char c : f) {
        if (c == '"') buffer_ += '"';
        buffer_ += c;
      }
      buffer_ += '"';
    } else {
      buffer_ += f;
    }
  }
  buffer_ += '\n';
}

Status ForEachCsvRow(std::string_view text, char delimiter,
                     const CsvRowVisitor& visit) {
  // A field is a run of `text`, or of `scratch` once it held a quote. The
  // views are resolved when the row ends, after `scratch` stopped growing.
  struct Span {
    size_t begin;
    size_t size;
    bool in_scratch;
  };
  std::vector<Span> spans;
  std::vector<std::string_view> fields;
  std::string scratch;
  size_t line = 1;            // physical line currently being scanned
  size_t row_start_line = 1;  // line on which the in-progress row began
  auto end_row = [&] {
    fields.clear();
    for (const Span& s : spans) {
      fields.push_back(s.in_scratch
                           ? std::string_view(scratch).substr(s.begin, s.size)
                           : text.substr(s.begin, s.size));
    }
    visit(fields, row_start_line);
    spans.clear();
    scratch.clear();
  };
  auto is_end = [delimiter](char c) {
    return c == delimiter || c == '\n' || c == '\r';
  };
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    // At the first byte of a field.
    if (text[i] == '"') {
      const size_t quote_open_line = line;
      const size_t begin = scratch.size();
      bool closed = false;
      for (++i; i < n;) {
        const char c = text[i];
        if (c != '"') {
          if (c == '\n') ++line;  // quoted fields may span physical lines
          scratch += c;
          ++i;
        } else if (i + 1 < n && text[i + 1] == '"') {
          scratch += '"';
          i += 2;
        } else {
          ++i;
          closed = true;
          break;
        }
      }
      if (!closed) {
        return Status::InvalidArgument(
            "CSV ends inside a quoted field (quote opened on line " +
            std::to_string(quote_open_line) + ")");
      }
      for (; i < n && !is_end(text[i]); ++i) scratch += text[i];
      spans.push_back({begin, scratch.size() - begin, true});
    } else {
      const size_t begin = i;
      while (i < n && !is_end(text[i])) ++i;
      spans.push_back({begin, i - begin, false});
    }
    if (i == n) break;
    if (text[i] == delimiter) {
      ++i;
      if (i == n) spans.push_back({i, 0, false});  // trailing empty field
      continue;
    }
    // Row terminator, RFC 4180 lenient: CRLF counts once, and a bare CR
    // (classic-Mac line ending) ends the row too instead of silently
    // vanishing from the field.
    end_row();
    if (text[i] == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
    ++i;
    ++line;
    row_start_line = line;
  }
  if (!spans.empty()) end_row();  // last row without a terminator
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char delimiter) {
  TDAC_ASSIGN_OR_RETURN(CsvDocument doc, ParseCsvWithLines(text, delimiter));
  return std::move(doc.rows);
}

Result<CsvDocument> ParseCsvWithLines(std::string_view text, char delimiter) {
  CsvDocument doc;
  TDAC_RETURN_NOT_OK(ForEachCsvRow(
      text, delimiter,
      [&doc](std::span<const std::string_view> fields, size_t line) {
        doc.rows.emplace_back(fields.begin(), fields.end());
        doc.row_lines.push_back(line);
      }));
  return doc;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, char delimiter) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsv(text, delimiter);
}

Status WriteFile(const std::string& path, std::string_view text) {
  // Deliberately non-durable: the crash-recovery tests use this writer to
  // fabricate torn/corrupt files that AtomicWriteFile cannot produce.
  // Durable paths go through src/common/io.
  // lint: atomic-io-ok (non-durable by contract; tests fabricate torn files)
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IoError("write failed: " + path);
  // flush + close before the final stream-state check: buffered bytes only
  // reach the OS here, and a full disk surfaces as a failbit on close.
  out.flush();
  out.close();
  if (out.fail()) return Status::IoError("write failed on close: " + path);
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for reading: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot read a directory: " + path);
  }
  // A regular file is read into a buffer of its size (+1, so end of file
  // shows without a regrow); anything else, e.g. a pipe, grows as it reads.
  std::string text(S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) + 1
                                       : size_t{1} << 16,
                   '\0');
  size_t length = 0;
  for (;;) {
    if (length == text.size()) text.resize(2 * text.size());
    const ssize_t n = ::read(fd, text.data() + length, text.size() - length);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::IoError("read failed: " + path);
    }
    if (n == 0) break;
    length += static_cast<size_t>(n);
  }
  ::close(fd);
  text.resize(length);
  return text;
}

}  // namespace tdac
