#include "data/dataset_io.h"

#include <cmath>
#include <fstream>

#include "util/string_util.h"

namespace actor {
namespace {

std::string SanitizeText(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

Status SaveCorpusTsv(const Corpus& corpus, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  for (const auto& r : corpus.records()) {
    std::vector<std::string> mention_strs;
    mention_strs.reserve(r.mentioned_user_ids.size());
    for (int64_t m : r.mentioned_user_ids) {
      mention_strs.push_back(std::to_string(m));
    }
    out << r.id << '\t' << r.user_id << '\t' << r.timestamp << '\t'
        << r.location.x << '\t' << r.location.y << '\t'
        << Join(mention_strs, ",") << '\t' << SanitizeText(r.text) << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Corpus> LoadCorpusTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  Corpus corpus;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 7) {
      return Status::InvalidArgument(StrPrintf(
          "%s:%zu: expected 7 tab-separated fields, got %zu", path.c_str(),
          line_no, fields.size()));
    }
    RawRecord rec;
    if (!ParseInt64(fields[0], &rec.id) ||
        !ParseInt64(fields[1], &rec.user_id) ||
        !ParseDouble(fields[2], &rec.timestamp) ||
        !ParseDouble(fields[3], &rec.location.x) ||
        !ParseDouble(fields[4], &rec.location.y)) {
      return Status::InvalidArgument(
          StrPrintf("%s:%zu: malformed numeric field", path.c_str(), line_no));
    }
    // strtod accepts "nan" and "inf"; a non-finite coordinate or timestamp
    // would corrupt hotspot detection downstream.
    const char* non_finite = !std::isfinite(rec.timestamp)    ? "timestamp"
                             : !std::isfinite(rec.location.x) ? "x"
                             : !std::isfinite(rec.location.y) ? "y"
                                                              : nullptr;
    if (non_finite != nullptr) {
      return Status::InvalidArgument(StrPrintf(
          "%s:%zu: non-finite %s", path.c_str(), line_no, non_finite));
    }
    if (!fields[5].empty()) {
      for (const auto& m : Split(fields[5], ',')) {
        int64_t mention = 0;
        if (!ParseInt64(m, &mention)) {
          return Status::InvalidArgument(
              StrPrintf("%s:%zu: malformed mention id '%s'", path.c_str(),
                        line_no, m.c_str()));
        }
        rec.mentioned_user_ids.push_back(mention);
      }
    }
    rec.text = fields[6];
    corpus.Add(std::move(rec));
  }
  return corpus;
}

}  // namespace actor
