#include "seq/io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/string_util.h"

namespace cluseq {

namespace {

// Parses ">id label=3" header lines. The label annotation is optional.
// A label field is a whole decimal int32 that is kNoLabel or a class id:
// anything else would either merge into another class or index past the
// evaluator's per-class tables.
bool ParseLabel(std::string_view text, Label* label) {
  return ParseInt32(text, label) && *label >= kNoLabel;
}

// Returns false when a label= token does not parse (see ParseLabel).
bool ParseFastaHeader(std::string_view header, std::string* id,
                      Label* label) {
  *label = kNoLabel;
  header = StripAsciiWhitespace(header);
  size_t space = header.find(' ');
  *id = std::string(header.substr(0, space));
  while (space != std::string_view::npos) {
    header = StripAsciiWhitespace(header.substr(space + 1));
    space = header.find(' ');
    std::string_view token = header.substr(0, space);
    if (StartsWith(token, "label=") && !ParseLabel(token.substr(6), label)) {
      return false;
    }
  }
  return true;
}

Status FlushFastaRecord(const std::string& id, Label label,
                        const std::string& body, SequenceDatabase* db) {
  return db->AddText(body, id, label);
}

Status OversizedRecord(std::string_view format, std::string_view id,
                       size_t line_no, size_t limit) {
  return Status::InvalidArgument(StringPrintf(
      "%.*s record '%.*s' (line %zu) exceeds max_record_bytes (%zu); raise "
      "IoOptions::max_record_bytes if this input is legitimate",
      static_cast<int>(format.size()), format.data(),
      static_cast<int>(id.size()), id.data(), line_no, limit));
}

}  // namespace

Status ReadFasta(std::istream& in, SequenceDatabase* db,
                 const IoOptions& options) {
  std::string line;
  std::string id;
  std::string body;
  Label label = kNoLabel;
  bool in_record = false;
  size_t line_no = 0;
  size_t record_line = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // StripAsciiWhitespace also drops a CRLF's trailing '\r'.
    std::string_view sv = StripAsciiWhitespace(line);
    if (sv.empty()) continue;
    if (sv[0] == '>') {
      if (in_record) {
        CLUSEQ_RETURN_NOT_OK(FlushFastaRecord(id, label, body, db));
      }
      if (!ParseFastaHeader(sv.substr(1), &id, &label)) {
        return Status::Corruption(StringPrintf(
            "FASTA line %zu: label is not -1 or a nonnegative int32",
            line_no));
      }
      body.clear();
      in_record = true;
      record_line = line_no;
    } else {
      if (!in_record) {
        return Status::Corruption(StringPrintf(
            "FASTA line %zu: sequence data before any '>' header", line_no));
      }
      if (body.size() + sv.size() > options.max_record_bytes) {
        return OversizedRecord("FASTA", id, record_line,
                               options.max_record_bytes);
      }
      body.append(sv);
    }
  }
  // getline() delivers a final record even without a trailing newline.
  if (in_record) {
    CLUSEQ_RETURN_NOT_OK(FlushFastaRecord(id, label, body, db));
  }
  return Status::OK();
}

Status ReadFastaFile(const std::string& path, SequenceDatabase* db,
                     const IoOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ReadFasta(in, db, options);
}

Status WriteFasta(const SequenceStore& db, std::ostream& out) {
  for (size_t i = 0; i < db.size(); ++i) {
    const std::string_view id = db.Id(i);
    out << '>';
    if (id.empty()) {
      out << "seq" << i;
    } else {
      out << id;
    }
    if (db.LabelOf(i) != kNoLabel) out << " label=" << db.LabelOf(i);
    out << '\n';
    std::string text = db.alphabet().Decode(db.Symbols(i));
    // Wrap at 70 columns like classic FASTA writers.
    for (size_t pos = 0; pos < text.size(); pos += 70) {
      out << text.substr(pos, 70) << '\n';
    }
    if (text.empty()) out << '\n';
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteFastaFile(const SequenceStore& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  return WriteFasta(db, out);
}

Status ReadTsv(std::istream& in, SequenceDatabase* db,
               const IoOptions& options) {
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Accept CRLF input: the '\r' would otherwise survive inside the last
    // (text) field and be interned as a symbol.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (StripAsciiWhitespace(line).empty()) continue;
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::Corruption(StringPrintf(
          "TSV line %zu: expected 3 tab-separated fields, got %zu", line_no,
          fields.size()));
    }
    if (fields[2].size() > options.max_record_bytes) {
      return OversizedRecord("TSV", fields[0], line_no,
                             options.max_record_bytes);
    }
    Label label = kNoLabel;
    if (!ParseLabel(fields[1], &label)) {
      return Status::Corruption(StringPrintf(
          "TSV line %zu: label '%s' is not -1 or a nonnegative int32",
          line_no, fields[1].c_str()));
    }
    CLUSEQ_RETURN_NOT_OK(db->AddText(fields[2], fields[0], label));
  }
  return Status::OK();
}

Status ReadTsvFile(const std::string& path, SequenceDatabase* db,
                   const IoOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ReadTsv(in, db, options);
}

Status WriteTsv(const SequenceStore& db, std::ostream& out) {
  for (size_t i = 0; i < db.size(); ++i) {
    const std::string_view id = db.Id(i);
    if (id.empty()) {
      out << "seq" << i;
    } else {
      out << id;
    }
    out << '\t' << db.LabelOf(i) << '\t'
        << db.alphabet().Decode(db.Symbols(i)) << '\n';
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteTsvFile(const SequenceStore& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  return WriteTsv(db, out);
}

}  // namespace cluseq
