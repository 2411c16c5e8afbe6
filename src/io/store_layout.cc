#include "io/store_layout.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "common/crc32.h"

namespace hpm {

namespace {

constexpr char kManifestHeader[] = "hpm-store-manifest v2";
constexpr std::string_view kManifestPrefix = "MANIFEST-";

/// Parses `text` as exactly the decimal std::to_string would print.
template <typename T>
bool ParseCanonical(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || std::to_string(value) != text) {
    return false;
  }
  *out = value;
  return true;
}

/// Parses "<prefix><a>-<b><suffix>"; `b` is unsigned, so the last '-'
/// separates the two numbers even when `a` is negative.
template <typename A, typename B>
bool ParsePair(std::string_view name, std::string_view prefix,
               std::string_view suffix, A* a, B* b) {
  if (name.size() < prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return false;
  }
  name = name.substr(prefix.size(),
                     name.size() - prefix.size() - suffix.size());
  const size_t dash = name.rfind('-');
  A parsed_a{};
  B parsed_b{};
  if (dash == std::string_view::npos ||
      !ParseCanonical(name.substr(0, dash), &parsed_a) ||
      !ParseCanonical(name.substr(dash + 1), &parsed_b)) {
    return false;
  }
  *a = parsed_a;
  *b = parsed_b;
  return true;
}

std::string PairName(const char* prefix, int64_t a, uint64_t b,
                     const char* suffix) {
  return prefix + std::to_string(a) + "-" + std::to_string(b) + suffix;
}

}  // namespace

std::string ManifestFileName(uint64_t gen) {
  return std::string(kManifestPrefix) + std::to_string(gen);
}

bool ParseManifestFileName(std::string_view name, uint64_t* gen) {
  return name.starts_with(kManifestPrefix) &&
         ParseCanonical(name.substr(kManifestPrefix.size()), gen);
}

std::string FormatCurrent(uint64_t gen) {
  return ManifestFileName(gen) + "\n";
}

bool ParseCurrent(std::string_view content, uint64_t* gen) {
  while (!content.empty() &&
         (content.back() == '\n' || content.back() == '\r')) {
    content.remove_suffix(1);
  }
  return ParseManifestFileName(content, gen);
}

std::string CsvFileName(int64_t id, uint64_t gen) {
  return PairName("", id, gen, ".csv");
}

std::string ModelFileName(int64_t id, uint64_t gen) {
  return PairName("", id, gen, ".model");
}

bool ParseObjectFileName(std::string_view name, int64_t* id, uint64_t* gen) {
  return ParsePair(name, "", ".csv", id, gen) ||
         ParsePair(name, "", ".model", id, gen);
}

std::string SegmentFileName(int shard, uint64_t seq) {
  return PairName("wal-", shard, seq, ".log");
}

bool ParseSegmentFileName(std::string_view name, int* shard,
                          uint64_t* seq) {
  int parsed_shard = 0;
  uint64_t parsed_seq = 0;
  if (!ParsePair(name, "wal-", ".log", &parsed_shard, &parsed_seq) ||
      parsed_shard < 0) {
    return false;
  }
  *shard = parsed_shard;
  *seq = parsed_seq;
  return true;
}

std::string FormatManifest(const std::vector<ManifestEntry>& entries) {
  std::string manifest = kManifestHeader;
  manifest += '\n';
  char line[160];
  for (const ManifestEntry& entry : entries) {
    std::snprintf(line, sizeof(line),
                  "object %" PRId64 " %zu %zu %d %08x\n", entry.id,
                  entry.history_len, entry.consumed, entry.has_model ? 1 : 0,
                  entry.csv_crc);
    manifest += line;
  }
  std::snprintf(line, sizeof(line), "crc32 %08x\n", Crc32(manifest));
  manifest += line;
  return manifest;
}

Status ParseManifest(const std::string& content,
                     std::vector<ManifestEntry>* entries) {
  // The trailing line must be "crc32 <hex>" over every byte before it.
  const size_t last_newline = content.size() >= 2
                                  ? content.rfind('\n', content.size() - 2)
                                  : std::string::npos;
  if (content.empty() || content.back() != '\n' ||
      last_newline == std::string::npos) {
    return Status::DataLoss("manifest missing checksum line");
  }
  const std::string crc_line =
      content.substr(last_newline + 1,
                     content.size() - last_newline - 2);
  uint32_t stored_crc = 0;
  if (std::sscanf(crc_line.c_str(), "crc32 %" SCNx32, &stored_crc) != 1) {
    return Status::DataLoss("manifest missing checksum line");
  }
  if (Crc32(content.data(), last_newline + 1) != stored_crc) {
    return Status::DataLoss("manifest checksum mismatch");
  }

  size_t pos = 0;
  bool header_seen = false;
  while (pos <= last_newline) {
    const size_t eol = content.find('\n', pos);
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (!header_seen) {
      if (line != kManifestHeader) {
        return Status::DataLoss("bad manifest header: " + line);
      }
      header_seen = true;
      continue;
    }
    ManifestEntry entry;
    int has_model = 0;
    if (std::sscanf(line.c_str(),
                    "object %" SCNd64 " %zu %zu %d %" SCNx32, &entry.id,
                    &entry.history_len, &entry.consumed, &has_model,
                    &entry.csv_crc) != 5) {
      return Status::DataLoss("malformed manifest line: " + line);
    }
    entry.has_model = has_model != 0;
    entries->push_back(entry);
  }
  return Status::OK();
}

}  // namespace hpm
