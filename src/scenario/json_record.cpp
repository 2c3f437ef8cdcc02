#include "scenario/json_record.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "scenario/json_util.hpp"

namespace pnoc::scenario {
namespace {

std::string formatNumber(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

JsonRecord::JsonRecord(std::string name) {
  fields_.emplace_back("name", '"' + jsonEscape(name) + '"');
}

JsonRecord JsonRecord::fromSerialized(std::string json) {
  JsonRecord record;
  record.raw_ = std::move(json);
  return record;
}

JsonRecord& JsonRecord::number(const std::string& key, double value) {
  if (raw_.empty()) fields_.emplace_back(key, formatNumber(value));
  return *this;
}

JsonRecord& JsonRecord::integer(const std::string& key, long long value) {
  if (raw_.empty()) fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonRecord& JsonRecord::text(const std::string& key, const std::string& value) {
  if (raw_.empty()) fields_.emplace_back(key, '"' + jsonEscape(value) + '"');
  return *this;
}

std::string JsonRecord::serialize() const {
  if (!raw_.empty()) return raw_;
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += '"' + jsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

JsonRecorder::JsonRecorder(std::string benchName) : benchName_(std::move(benchName)) {}

JsonRecord& JsonRecorder::add(const std::string& recordName) {
  records_.emplace_back(recordName);
  return records_.back();
}

JsonRecord& JsonRecorder::addRaw(std::string serialized) {
  records_.push_back(JsonRecord::fromSerialized(std::move(serialized)));
  return records_.back();
}

std::string JsonRecorder::write(const std::string& directory) const {
  const std::string path = directory + "/BENCH_" + benchName_ + ".json";
  // Temp + rename: readers (and the checkpointed-resume loader) never see a
  // torn file, no matter when the writer dies.
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", temp.c_str());
      return "";
    }
    out << "{\"bench\":\"" << jsonEscape(benchName_) << "\",\"records\":[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << "  " << records_[i].serialize();
      if (i + 1 < records_.size()) out << ",";
      out << "\n";
    }
    out << "]}\n";
    out.close();
    if (!out.good()) {
      // A short write (ENOSPC, quota) must not be renamed over the previous
      // good file — that would trade atomicity for a torn checkpoint.
      std::fprintf(stderr, "bench: failed writing %s\n", temp.c_str());
      std::remove(temp.c_str());
      return "";
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "bench: cannot rename %s to %s\n", temp.c_str(),
                 path.c_str());
    return "";
  }
  return path;
}

}  // namespace pnoc::scenario
