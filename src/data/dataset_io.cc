#include "data/dataset_io.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/csv.h"
#include "common/io.h"
#include "common/string_util.h"
#include "data/dataset_builder.h"

namespace tdac {

namespace {

const char* KindName(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kInt:
      return "int";
    case Value::Kind::kDouble:
      return "double";
  }
  return "string";
}

Result<Value::Kind> ParseKind(std::string_view s) {
  if (s == "string") return Value::Kind::kString;
  if (s == "int") return Value::Kind::kInt;
  if (s == "double") return Value::Kind::kDouble;
  return Status::InvalidArgument("unknown value kind '" + std::string(s) +
                                 "'");
}

/// Prefixes an ingestion error with the 1-based input line and the field
/// that failed, e.g. `claim CSV line 7, field "kind": ...`.
Status AtLine(const std::string& file_kind, size_t line,
              const std::string& field, const Status& status) {
  return Status(status.code(), file_kind + " line " + std::to_string(line) +
                                   ", field \"" + field +
                                   "\": " + status.message());
}

/// The error for a row whose field count is not `expected`.
Status FieldCountError(const std::string& file_kind, size_t line,
                       size_t expected, const char* columns, size_t got) {
  return Status::InvalidArgument(
      file_kind + " line " + std::to_string(line) + ": expected " +
      std::to_string(expected) + " fields (" + columns + "), got " +
      std::to_string(got));
}

/// Parses the typed value of a row, reporting the offending text on error.
/// A string payload views `value_text`.
Result<ValueRef> ParseRowValue(const std::string& file_kind, size_t line,
                               std::string_view kind_text,
                               std::string_view value_text) {
  Result<Value::Kind> kind = ParseKind(kind_text);
  if (!kind.ok()) return AtLine(file_kind, line, "kind", kind.status());
  Result<ValueRef> value = ValueRef::Parse(kind.value(), value_text);
  if (!value.ok()) return AtLine(file_kind, line, "value", value.status());
  return value;
}

/// Runs `add_row` over every row after the header, stopping at the first
/// error. The CSV framing is still checked to the end of `text`, and its
/// error wins over a row error: a file with an unterminated quote is
/// refused as such, whatever its earlier rows hold.
Status ForEachDataRow(
    std::string_view text, const std::string& file_kind,
    const std::function<Status(std::span<const std::string_view>, size_t)>&
        add_row) {
  size_t rows = 0;
  Status row_error;
  TDAC_RETURN_NOT_OK(ForEachCsvRow(
      text, ',', [&](std::span<const std::string_view> fields, size_t line) {
        if (rows++ == 0 || !row_error.ok()) return;  // header, or failed
        Status status = add_row(fields, line);
        if (!status.ok()) row_error = std::move(status);
      }));
  if (rows == 0) return Status::InvalidArgument("empty " + file_kind);
  return row_error;
}

}  // namespace

std::string DatasetToCsv(const Dataset& dataset) {
  CsvWriter w;
  w.WriteRow({"source", "object", "attribute", "kind", "value"});
  const std::vector<int32_t>& sources = dataset.claim_sources();
  const std::vector<int32_t>& objects = dataset.claim_objects();
  const std::vector<int32_t>& attributes = dataset.claim_attributes();
  const std::vector<int32_t>& value_ids = dataset.claim_value_ids();
  const ValueDict& dict = dataset.value_dict();
  for (size_t i = 0; i < dataset.num_claims(); ++i) {
    const Value value = dict.ValueAt(value_ids[i]);
    w.WriteRow({dataset.source_name(sources[i]),
                dataset.object_name(objects[i]),
                dataset.attribute_name(attributes[i]), KindName(value.kind()),
                value.ToString()});
  }
  return w.contents();
}

Result<Dataset> DatasetFromCsv(const std::string& text) {
  DatasetBuilder builder;
  // One claim per line at most: the columns never grow mid-load.
  builder.ReserveClaims(
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')));
  TDAC_RETURN_NOT_OK(ForEachDataRow(
      text, "claim CSV",
      [&builder](std::span<const std::string_view> row,
                 size_t line) -> Status {
        if (row.size() != 5) {
          return FieldCountError("claim CSV", line, 5,
                                 "source,object,attribute,kind,value",
                                 row.size());
        }
        TDAC_ASSIGN_OR_RETURN(
            ValueRef value, ParseRowValue("claim CSV", line, row[3], row[4]));
        return builder.AddClaim(row[0], row[1], row[2], value);
      }));
  return builder.Build();
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  return AtomicWriteFile(path, DatasetToCsv(dataset));
}

Result<Dataset> LoadDataset(const std::string& path) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return DatasetFromCsv(text);
}

std::string GroundTruthToCsv(const GroundTruth& truth,
                             const Dataset& dataset) {
  CsvWriter w;
  w.WriteRow({"object", "attribute", "kind", "value"});
  for (uint64_t key : truth.SortedKeys()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const Value* v = truth.Get(o, a);
    w.WriteRow({dataset.object_name(o), dataset.attribute_name(a),
                KindName(v->kind()), v->ToString()});
  }
  return w.contents();
}

Result<GroundTruth> GroundTruthFromCsv(const std::string& text,
                                       const Dataset& dataset) {
  std::unordered_map<std::string_view, ObjectId> objects;
  for (int o = 0; o < dataset.num_objects(); ++o) {
    objects.emplace(dataset.object_name(o), o);
  }
  std::unordered_map<std::string_view, AttributeId> attributes;
  for (int a = 0; a < dataset.num_attributes(); ++a) {
    attributes.emplace(dataset.attribute_name(a), a);
  }
  GroundTruth truth;
  TDAC_RETURN_NOT_OK(ForEachDataRow(
      text, "truth CSV",
      [&](std::span<const std::string_view> row, size_t line) -> Status {
        if (row.size() != 4) {
          return FieldCountError("truth CSV", line, 4,
                                 "object,attribute,kind,value", row.size());
        }
        auto oit = objects.find(row[0]);
        if (oit == objects.end()) {
          return AtLine("truth CSV", line, "object",
                        Status::NotFound("unknown object '" +
                                         std::string(row[0]) + "'"));
        }
        auto ait = attributes.find(row[1]);
        if (ait == attributes.end()) {
          return AtLine("truth CSV", line, "attribute",
                        Status::NotFound("unknown attribute '" +
                                         std::string(row[1]) + "'"));
        }
        TDAC_ASSIGN_OR_RETURN(
            ValueRef value, ParseRowValue("truth CSV", line, row[2], row[3]));
        truth.Set(oit->second, ait->second, value.ToValue());
        return Status::OK();
      }));
  return truth;
}

Status SaveGroundTruth(const GroundTruth& truth, const Dataset& dataset,
                       const std::string& path) {
  return AtomicWriteFile(path, GroundTruthToCsv(truth, dataset));
}

std::string SourceTrustToCsv(const std::vector<double>& trust,
                             const Dataset& dataset) {
  CsvWriter w;
  w.WriteRow({"source", "trust"});
  const size_t n = std::min(trust.size(),
                            static_cast<size_t>(dataset.num_sources()));
  for (size_t s = 0; s < n; ++s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", trust[s]);
    w.WriteRow({dataset.source_name(static_cast<SourceId>(s)), buf});
  }
  return w.contents();
}

Result<std::vector<double>> SourceTrustFromCsv(const std::string& text,
                                               const Dataset& dataset) {
  std::unordered_map<std::string_view, SourceId> sources;
  for (int s = 0; s < dataset.num_sources(); ++s) {
    sources.emplace(dataset.source_name(s), s);
  }
  std::vector<double> trust(static_cast<size_t>(dataset.num_sources()), 0.0);
  TDAC_RETURN_NOT_OK(ForEachDataRow(
      text, "trust CSV",
      [&](std::span<const std::string_view> row, size_t line) -> Status {
        if (row.size() != 2) {
          return FieldCountError("trust CSV", line, 2, "source,trust",
                                 row.size());
        }
        auto it = sources.find(row[0]);
        if (it == sources.end()) {
          return AtLine("trust CSV", line, "source",
                        Status::NotFound("unknown source '" +
                                         std::string(row[0]) + "'"));
        }
        Result<ValueRef> parsed =
            ValueRef::Parse(Value::Kind::kDouble, row[1]);
        if (!parsed.ok()) {
          return AtLine("trust CSV", line, "trust", parsed.status());
        }
        trust[static_cast<size_t>(it->second)] = parsed->AsDouble();
        return Status::OK();
      }));
  return trust;
}

Status SaveSourceTrust(const std::vector<double>& trust,
                       const Dataset& dataset, const std::string& path) {
  return AtomicWriteFile(path, SourceTrustToCsv(trust, dataset));
}

Result<std::vector<double>> LoadSourceTrust(const std::string& path,
                                            const Dataset& dataset) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return SourceTrustFromCsv(text, dataset);
}

Result<GroundTruth> LoadGroundTruth(const std::string& path,
                                    const Dataset& dataset) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return GroundTruthFromCsv(text, dataset);
}

}  // namespace tdac
