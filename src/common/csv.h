#ifndef TDAC_COMMON_CSV_H_
#define TDAC_COMMON_CSV_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tdac {

/// \brief Minimal RFC-4180-style CSV support used by the dataset I/O layer.
///
/// Fields containing the delimiter, double quotes, or newlines are quoted;
/// embedded quotes are doubled. Only '\n' record separators are produced;
/// both "\r\n" and "\n" are accepted on input.
class CsvWriter {
 public:
  explicit CsvWriter(char delimiter = ',') : delimiter_(delimiter) {}

  /// Appends one record to the in-memory buffer.
  void WriteRow(const std::vector<std::string>& fields);

  /// Returns everything written so far.
  const std::string& contents() const { return buffer_; }

 private:
  char delimiter_;
  std::string buffer_;
};

/// Receives one CSV row from ForEachCsvRow: `fields` are views valid only
/// for the duration of the call, and `line` is the 1-based physical line
/// the row began on.
using CsvRowVisitor =
    std::function<void(std::span<const std::string_view> fields, size_t line)>;

/// The CSV tokenizer: one scan over `text`, handing each row to `visit` in
/// order. Unquoted fields are views into `text`; only a quoted field is
/// unescaped, into a scratch buffer reused across rows. A `"` opens a quoted
/// field only as the field's first byte; anywhere else it is content, and
/// so is text after a closing quote. CRLF, LF and a bare CR each end a row
/// outside quotes. Returns InvalidArgument, naming the line the quote
/// opened on, when the text ends inside a quoted field (every complete row
/// before it has been visited by then).
[[nodiscard]] Status ForEachCsvRow(std::string_view text, char delimiter,
                                   const CsvRowVisitor& visit);

/// \brief A parsed CSV document with provenance: `rows[i]` began on
/// physical 1-based line `row_lines[i]` of the input. Quoted fields may
/// span lines, so row index and line number can diverge — error messages
/// should always cite the line number, not the row index.
struct CsvDocument {
  std::vector<std::vector<std::string>> rows;
  std::vector<size_t> row_lines;
};

/// Parses a full CSV document into rows of fields (ForEachCsvRow,
/// materialized).
[[nodiscard]]
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char delimiter = ',');

/// Like ParseCsv but also records the 1-based starting line of each row,
/// for ingestion errors that point at the offending input line.
[[nodiscard]]
Result<CsvDocument> ParseCsvWithLines(std::string_view text,
                                      char delimiter = ',');

/// Reads and parses a CSV file from disk.
[[nodiscard]] Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, char delimiter = ',');

/// Writes `text` to `path`, overwriting. Flush and close are checked, so
/// short writes and full disks surface as a Status — but the write is NOT
/// atomic: a crash mid-write leaves a torn file. Production output paths
/// use AtomicWriteFile (common/io.h) instead; this stays for scratch files
/// in tests.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view text);

/// Reads an entire file into a string. A path that cannot be opened or read,
/// or names a directory, yields an IoError.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

}  // namespace tdac

#endif  // TDAC_COMMON_CSV_H_
