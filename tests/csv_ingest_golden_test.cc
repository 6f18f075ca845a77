// Golden gate for CSV ingestion: the claim, truth and trust readers.
//
// Every case feeds one text to a reader and records either the exact
// Status text or, on success, what the reader built: for a claim file the
// DatasetFingerprint, the id-space counts, a hash of the three name tables
// and of the four id columns (source, object, attribute, value id), and a
// hash of the re-exported CSV; for a truth or trust file a hash of the
// parsed contents. The tokenizer itself is pinned by a hash of the rows and
// their starting lines. The corpus covers every corruption mode of
// gen/corrupt.h, the CSV framing edge cases (bare CR, CRLF, quoted CR/LF,
// doubled quotes, stray quotes, unterminated quotes, blank lines, missing
// final newline, empty and header-only files), bad kinds and values,
// duplicates, signed zeros, and a seeded byte-mutation corpus over small
// clean files (TDAC_FUZZ_SEED does not apply: the golden pins one corpus).
// Registered serially and under TDAC_THREADS=8.
//
// To regenerate after an *intentional* behavior change, run with
// TDAC_UPDATE_GOLDEN=1 in the environment and commit the diff.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/csv.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/dataset_builder.h"
#include "data/dataset_io.h"
#include "gen/corrupt.h"
#include "gen/synthetic.h"

namespace tdac {
namespace {

constexpr char kGoldenName[] = "csv_ingest.txt";

/// FNV-1a, fed piecewise.
class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void Str(std::string_view s) {
    const uint64_t len = s.size();
    Bytes(&len, sizeof(len));
    Bytes(s.data(), s.size());
  }
  template <typename T>
  void Column(const std::vector<T>& column) {
    const uint64_t len = column.size();
    Bytes(&len, sizeof(len));
    Bytes(column.data(), column.size() * sizeof(T));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

std::string HashText(std::string_view text) {
  Fnv h;
  h.Str(text);
  return h.Hex();
}

/// Status messages quote raw input, so control bytes are escaped to keep
/// one case per golden line.
std::string DescribeStatus(const Status& status) {
  std::string out = "error ";
  for (unsigned char c : status.ToString()) {
    if (c < 0x20 || c >= 0x7f || c == '\\') {
      char buf[5];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string DescribeCsv(std::string_view text) {
  auto doc = ParseCsvWithLines(text);
  if (!doc.ok()) return DescribeStatus(doc.status());
  Fnv h;
  for (size_t i = 0; i < doc->rows.size(); ++i) {
    const uint64_t line = doc->row_lines[i];
    h.Bytes(&line, sizeof(line));
    const uint64_t fields = doc->rows[i].size();
    h.Bytes(&fields, sizeof(fields));
    for (const std::string& field : doc->rows[i]) h.Str(field);
  }
  return "ok rows=" + std::to_string(doc->rows.size()) + " h=" + h.Hex();
}

std::string DescribeDataset(const Dataset& d) {
  Fnv names;
  for (const auto* table :
       {&d.source_names(), &d.object_names(), &d.attribute_names()}) {
    const uint64_t n = table->size();
    names.Bytes(&n, sizeof(n));
    for (const std::string& name : *table) names.Str(name);
  }
  Fnv columns;
  columns.Column(d.claim_sources());
  columns.Column(d.claim_objects());
  columns.Column(d.claim_attributes());
  columns.Column(d.claim_value_ids());
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(DatasetFingerprint(d)));
  std::ostringstream out;
  out << "ok fp=" << fp << " s=" << d.num_sources() << " o=" << d.num_objects()
      << " a=" << d.num_attributes() << " c=" << d.num_claims()
      << " v=" << d.value_dict().size() << " names=" << names.Hex()
      << " cols=" << columns.Hex() << " csv=" << HashText(DatasetToCsv(d));
  return out.str();
}

std::string DescribeClaims(const std::string& text) {
  auto loaded = DatasetFromCsv(text);
  if (!loaded.ok()) return DescribeStatus(loaded.status());
  return DescribeDataset(*loaded);
}

std::string DescribeTruth(const std::string& text, const Dataset& dataset) {
  auto truth = GroundTruthFromCsv(text, dataset);
  if (!truth.ok()) return DescribeStatus(truth.status());
  Fnv h;
  for (uint64_t key : truth->SortedKeys()) {
    h.Bytes(&key, sizeof(key));
    const Value* v = truth->Get(ObjectFromKey(key), AttributeFromKey(key));
    const int kind = static_cast<int>(v->kind());
    h.Bytes(&kind, sizeof(kind));
    h.Str(v->is_double() ? HexDouble(v->AsDouble()) : v->ToString());
  }
  return "ok n=" + std::to_string(truth->size()) + " h=" + h.Hex();
}

std::string DescribeTrust(const std::string& text, const Dataset& dataset) {
  auto trust = SourceTrustFromCsv(text, dataset);
  if (!trust.ok()) return DescribeStatus(trust.status());
  std::string out = "ok";
  for (double t : *trust) out += " " + HexDouble(t);
  return out;
}

/// Mixed kinds, names that need quoting, and a signed zero pair.
Dataset MixedDataset() {
  DatasetBuilder b;
  const std::vector<std::pair<std::string, Value>> values = {
      {"color", Value("red")},
      {"note", Value("say \"hi\", twice")},
      {"address", Value("line one\nline two")},
      {"count", Value(int64_t{7})},
      {"ratio", Value(2.5)},
      {"zero", Value(0.0)},
  };
  for (int s = 0; s < 3; ++s) {
    for (int o = 0; o < 4; ++o) {
      for (size_t a = 0; a < values.size(); ++a) {
        if ((s + o + static_cast<int>(a)) % 5 == 4) continue;  // gaps
        Value v = values[a].second;
        if (s == 1 && v.is_int()) v = Value(int64_t{-3});
        if (s == 2 && v.is_double() && v.AsDouble() == 0.0) v = Value(-0.0);
        if (s == 2 && v.is_string() && a == 0) v = Value("");
        const std::string source = s == 1 ? "src, one" : Numbered("s", s);
        EXPECT_TRUE(b.AddClaim(source, Numbered("o", o), values[a].first, v)
                        .ok());
      }
    }
  }
  return b.Build().MoveValue();
}

Dataset SyntheticDataset() {
  auto config = PaperSyntheticConfig(2, /*seed=*/7);
  EXPECT_TRUE(config.ok()) << config.status();
  config->num_objects = 12;
  auto data = GenerateSynthetic(*config);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data->dataset);
}

/// A string literal with its embedded NULs (but not its terminator).
template <size_t N>
std::string Literal(const char (&s)[N]) {
  return std::string(s, N - 1);
}

constexpr char kHeader[] = "source,object,attribute,kind,value\n";

/// Claim-file texts exercising the CSV framing and the row contract.
std::vector<std::pair<std::string, std::string>> ClaimEdgeCases() {
  const std::string h = kHeader;
  return {
      {"empty_file", ""},
      {"header_only", h},
      {"header_no_newline", "source,object,attribute,kind,value"},
      {"bad_header_only", "x\n"},
      {"lone_newline", "\n"},
      {"plain", h + "s1,o1,a1,string,red\ns2,o1,a1,int,3\n"},
      {"no_trailing_newline", h + "s1,o1,a1,string,red\ns2,o1,a1,int,3"},
      {"crlf", "source,object,attribute,kind,value\r\ns1,o1,a1,string,red\r\n"
               "s2,o1,a1,int,3\r\n"},
      {"bare_cr", "source,object,attribute,kind,value\rs1,o1,a1,string,red\r"
                  "s2,o1,a1,int,3\r"},
      {"bare_cr_mid_field", h + "s1,o1,a1,string,re\rd\n"},
      {"quoted_cr", h + "s1,o1,a1,string,\"re\rd\"\n"},
      {"quoted_lf", h + "s1,o1,a1,string,\"re\nd\"\ns2,o1,a1,int,3\n"},
      {"quoted_crlf", h + "s1,o1,a1,string,\"re\r\nd\"\ns2,o1,a1,int,x\n"},
      {"doubled_quotes", h + "s1,o1,a1,string,\"say \"\"hi\"\"\"\n"},
      {"quoted_names", h + "\"s,1\",\"o\"\"1\",\"\",string,v\n"},
      {"quoted_empty", h + "s1,o1,a1,string,\"\"\n"},
      {"quoted_kind", h + "s1,o1,a1,\"int\",\"42\"\n"},
      {"quote_mid_field", h + "s1,o\"1,a1,string,x\"y\n"},
      {"text_after_closing_quote", h + "s1,o1,a1,string,\"ab\"cd\n"},
      {"quote_after_closing_quote", h + "s1,o1,a1,string,\"ab\"c\"d\n"},
      {"unterminated_quote", h + "s1,o1,a1,string,\"never closed\n"},
      {"unterminated_after_bad_row", h + "s1,o1\ns2,o1,a1,string,\"open\n"},
      {"unterminated_after_dup",
       h + "s1,o1,a1,int,1\ns1,o1,a1,int,2\ns2,o1,a1,string,\"open\n"},
      {"unterminated_quote_line", h + "s1,o1,a1,string,x\n\"\n"},
      {"blank_middle_line", h + "s1,o1,a1,string,red\n\ns2,o1,a1,int,3\n"},
      {"blank_last_line", h + "s1,o1,a1,string,red\n\n"},
      {"crlf_blank_line", h + "s1,o1,a1,string,red\r\n\r\n"},
      {"short_row", h + "s1,o1,a1,string\n"},
      {"long_row", h + "s1,o1,a1,string,red,extra\n"},
      {"trailing_delimiter", h + "s1,o1,a1,string,red,\n"},
      {"short_row_line_after_quote",
       h + "s1,o1,a1,string,\"a\nb\nc\"\ns2,o1\n"},
      {"nul_in_name", h + Literal("s\0001,o1,a1,string,v\n")},
      {"nul_in_value", h + Literal("s1,o1,a1,string,v\0w\n")},
      {"nul_in_int", h + Literal("s1,o1,a1,int,1\0002\n")},
      {"trailing_nul", h + Literal("s1,o1,a1,int,1\n\0")},
      {"semicolons", "source;object;attribute;kind;value\ns1;o1;a1;int;1\n"},
      {"header_wrong_but_ignored", "a,b\ns1,o1,a1,int,1\n"},
  };
}

/// One-row claim files with a given kind and value text.
std::vector<std::pair<std::string, std::string>> ValueCases() {
  const std::vector<std::pair<std::string, std::string>> kind_values = {
      {"int", "12"},        {"int", "12x"},      {"int", ""},
      {"int", "-0"},        {"int", "+5"},       {"int", " 5"},
      {"int", "5 "},        {"int", "1.0"},      {"int", "0x10"},
      {"int", "9223372036854775807"},           {"int", "9223372036854775808"},
      {"int", "-9223372036854775808"},          {"int", "-"},
      {"double", "1.5"},    {"double", "nan"},   {"double", "NaN"},
      {"double", "inf"},    {"double", "-inf"},  {"double", "+1.5"},
      {"double", " 1.5"},   {"double", "1.5 "},  {"double", "0x1p3"},
      {"double", ""},       {"double", "1e400"}, {"double", "-1e400"},
      {"double", "1e-400"}, {"double", "4.9e-324"},
      {"double", "1.7976931348623157e308"},     {"double", "-0.0"},
      {"double", ".5"},     {"double", "5."},    {"double", "1e5"},
      {"double", "12x"},    {"double", "infinity"},
      {"string", ""},       {"string", "12"},    {"string", " padded "},
      {"floatt", "1"},      {"", "1"},           {"Int", "1"},
      {"string ", "x"},
  };
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [kind, value] : kind_values) {
    out.push_back({kind + ":" + value,
                   std::string(kHeader) + "s1,o1,a1," + kind + "," + value +
                       "\n"});
  }
  return out;
}

/// Duplicate and signed-zero claim files.
std::vector<std::pair<std::string, std::string>> ContractCases() {
  const std::string h = kHeader;
  return {
      {"dup_same_value", h + "s1,o1,a1,int,1\ns1,o1,a1,int,1\n"},
      {"dup_other_value", h + "s1,o1,a1,int,1\ns2,o1,a1,int,1\n"
                              "s1,o1,a1,string,x\n"},
      {"dup_after_bad_value", h + "s1,o1,a1,int,x\ns1,o1,a1,int,1\n"},
      {"bad_value_after_dup", h + "s1,o1,a1,int,1\ns1,o1,a1,int,1\n"
                                  "s2,o1,a1,int,x\n"},
      {"short_row_after_dup", h + "s1,o1,a1,int,1\ns1,o1,a1,int,1\ns2\n"},
      {"same_source_other_item", h + "s1,o1,a1,int,1\ns1,o1,a2,int,1\n"
                                     "s1,o2,a1,int,1\n"},
      {"neg_zero_after_pos_zero",
       h + "s1,o1,a1,double,0\ns2,o1,a1,double,-0.0\ns3,o1,a1,double,0.0\n"},
      {"pos_zero_after_neg_zero",
       h + "s1,o1,a1,double,-0\ns2,o1,a1,double,0\ns3,o1,a1,double,+0\n"},
      {"int_and_double_two",
       h + "s1,o1,a1,int,2\ns2,o1,a1,double,2\ns3,o1,a1,double,2.0\n"
           "s4,o1,a1,string,2\n"},
      {"interleaved_names",
       h + "b,y,q,int,1\na,x,p,int,2\nb,x,q,int,3\nc,z,p,string,b\n"},
  };
}

std::string Mutate(const std::string& clean, Rng* rng) {
  static const char kSpecial[] = {'"', ',', '\n', '\r', '\0', 'x',
                                  '-', '.', '0',  '9',  ' ',  'e'};
  std::string text = clean;
  const size_t edits = 1 + rng->NextBounded(4);
  for (size_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t at = rng->NextBounded(text.size());
    const char ch = rng->NextBounded(3) == 0
                        ? static_cast<char>(rng->NextBounded(256))
                        : kSpecial[rng->NextBounded(sizeof(kSpecial))];
    switch (rng->NextBounded(4)) {
      case 0:
        text[at] = ch;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), ch);
        break;
      case 2:
        text.erase(at, 1 + rng->NextBounded(3));
        break;
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

std::string RunAll() {
  std::ostringstream out;
  const Dataset mixed = MixedDataset();
  const Dataset synthetic = SyntheticDataset();
  const std::string mixed_csv = DatasetToCsv(mixed);
  const std::string synthetic_csv = DatasetToCsv(synthetic);

  out << "## clean\n";
  out << "mixed " << DescribeClaims(mixed_csv) << "\n";
  out << "synthetic " << DescribeClaims(synthetic_csv) << "\n";

  out << "## corrupt\n";
  for (const auto& [base_name, base_csv] :
       {std::pair<std::string, const std::string*>{"mixed", &mixed_csv},
        {"synthetic", &synthetic_csv}}) {
    for (CorruptionMode mode : AllCorruptionModes()) {
      for (uint64_t seed : {1, 2, 3}) {
        CorruptionOptions options;
        options.mode = mode;
        options.seed = seed;
        const std::string text = CorruptClaimCsv(*base_csv, options);
        out << base_name << "/" << CorruptionModeName(mode) << "/" << seed
            << " " << DescribeClaims(text) << "\n";
      }
    }
  }

  out << "## edge\n";
  for (const auto& [name, text] : ClaimEdgeCases()) {
    out << name << " csv " << DescribeCsv(text) << "\n";
    out << name << " claims " << DescribeClaims(text) << "\n";
  }
  out << "## values\n";
  for (const auto& [name, text] : ValueCases()) {
    out << "[" << name << "] " << DescribeClaims(text) << "\n";
  }
  out << "## contract\n";
  for (const auto& [name, text] : ContractCases()) {
    out << name << " " << DescribeClaims(text) << "\n";
  }

  out << "## truth\n";
  const std::string th = "object,attribute,kind,value\n";
  const std::vector<std::pair<std::string, std::string>> truth_cases = {
      {"empty_file", ""},
      {"header_only", th},
      {"plain", th + "o0,color,string,red\no1,count,int,7\no2,ratio,double,"
                     "2.5\n"},
      {"quoted", th + "o0,note,string,\"say \"\"hi\"\", twice\"\n"
                      "o0,address,string,\"line one\nline two\"\n"},
      {"crlf", "object,attribute,kind,value\r\no0,color,string,red\r\n"},
      {"no_trailing_newline", th + "o0,color,string,red"},
      {"overwrite", th + "o0,color,string,red\no0,color,string,blue\n"},
      {"unknown_object", th + "o0,color,string,red\nghost,color,string,x\n"},
      {"unknown_attribute", th + "o0,shade,string,red\n"},
      {"short_row", th + "o0,color,string\n"},
      {"long_row", th + "o0,color,string,red,x\n"},
      {"blank_middle_line", th + "o0,color,string,red\n\no1,color,string,x\n"},
      {"bad_kind", th + "o0,count,integer,7\n"},
      {"bad_int", th + "o0,count,int,7x\n"},
      {"nan", th + "o0,ratio,double,nan\n"},
      {"neg_zero", th + "o0,zero,double,-0\n"},
      {"hex_double", th + "o0,ratio,double,0x1p3\n"},
      {"unterminated_quote", th + "o0,color,string,\"red\n"},
      {"unknown_object_then_unterminated",
       th + "ghost,color,string,x\no0,color,string,\"red\n"},
  };
  for (const auto& [name, text] : truth_cases) {
    out << name << " " << DescribeTruth(text, mixed) << "\n";
  }

  out << "## trust\n";
  const std::string sh = "source,trust\n";
  const std::vector<std::pair<std::string, std::string>> trust_cases = {
      {"empty_file", ""},
      {"header_only", sh},
      {"plain", sh + "s0,0.9\ns2,0.25\n"},
      {"quoted_name", sh + "\"src, one\",0.5\n"},
      {"partial", sh + "s2,1\n"},
      {"overwrite", sh + "s0,0.1\ns0,0.2\n"},
      {"unknown_source", sh + "s0,0.1\nghost,0.5\n"},
      {"bad_trust", sh + "s0,0.1\ns2,oops\n"},
      {"nan", sh + "s0,nan\n"},
      {"empty_trust", sh + "s0,\n"},
      {"short_row", sh + "s0\n"},
      {"long_row", sh + "s0,0.1,0.2\n"},
      {"blank_middle_line", sh + "s0,0.1\n\ns2,0.2\n"},
      {"crlf", "source,trust\r\ns0,0.5\r\n"},
      {"unterminated_quote", sh + "\"s0,0.5\n"},
      {"padded", sh + "s0, 0.5\n"},
  };
  for (const auto& [name, text] : trust_cases) {
    out << name << " " << DescribeTrust(text, mixed) << "\n";
  }

  out << "## mutations\n";
  Rng rng(20261020ULL);
  const std::string truth_csv = GroundTruthToCsv(
      [&] {
        GroundTruth t;
        t.Set(0, 0, Value("red"));
        t.Set(1, 3, Value(int64_t{7}));
        t.Set(2, 4, Value(2.5));
        t.Set(3, 1, Value("say \"hi\", twice"));
        return t;
      }(),
      mixed);
  const std::string trust_csv =
      SourceTrustToCsv({0.9, 0.5, 0.125}, mixed);
  for (int i = 0; i < 300; ++i) {
    const std::string text = Mutate(mixed_csv, &rng);
    out << "claims " << i << " " << HashText(text) << " csv "
        << DescribeCsv(text) << " | " << DescribeClaims(text) << "\n";
  }
  for (int i = 0; i < 100; ++i) {
    const std::string text = Mutate(truth_csv, &rng);
    out << "truth " << i << " " << HashText(text) << " "
        << DescribeTruth(text, mixed) << "\n";
  }
  for (int i = 0; i < 100; ++i) {
    const std::string text = Mutate(trust_csv, &rng);
    out << "trust " << i << " " << HashText(text) << " "
        << DescribeTrust(text, mixed) << "\n";
  }
  return out.str();
}

TEST(CsvIngestGoldenTest, ReadersMatchGolden) {
  const std::string golden_path =
      std::string(TDAC_GOLDEN_DIR) + "/" + kGoldenName;
  const std::string actual = RunAll();
  ASSERT_FALSE(actual.empty());
  const char* update = std::getenv("TDAC_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream file(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write golden " << golden_path;
    file << actual;
    GTEST_SKIP() << "golden regenerated: " << golden_path;
  }
  std::ifstream file(golden_path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "missing golden file " << golden_path;
  std::ostringstream expected;
  expected << file.rdbuf();
  if (actual == expected.str()) return;
  // Point at the first diverging case rather than dumping both texts.
  const std::string& want = expected.str();
  const size_t at = static_cast<size_t>(
      std::mismatch(actual.begin(), actual.end(), want.begin(), want.end())
          .first -
      actual.begin());
  const size_t line_start = actual.rfind('\n', at == 0 ? 0 : at - 1);
  const size_t begin = line_start == std::string::npos ? 0 : line_start + 1;
  const size_t want_end = want.find('\n', begin);
  FAIL() << "output diverges from " << kGoldenName << " at byte " << at
         << "\n  got:  " << actual.substr(begin, actual.find('\n', begin) - begin)
         << "\n  want: " << want.substr(begin, want_end - begin) << "\n"
         << "rerun with TDAC_UPDATE_GOLDEN=1 only if the change is "
            "intentional";
}

}  // namespace
}  // namespace tdac
