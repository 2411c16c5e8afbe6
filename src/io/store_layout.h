// The store directory's file names and manifest format: the one
// definition that server/store_io.cc (save/load), io/wal.cc (journal
// segment names), server/replication.cc (replica bootstrap) and
// net/protocol.cc (the kReplFetch name whitelist) share.
//
//   CURRENT                "MANIFEST-<gen>\n"; swapped last, so it always
//                          names a fully written generation
//   MANIFEST-<gen>         header "hpm-store-manifest v2", one line per
//                          object "object <id> <len> <consumed> <model?>
//                          <crc>" (crc = CRC32 of the object's csv bytes,
//                          8 hex digits), then "crc32 <hex>" over every
//                          preceding byte
//   <id>-<gen>.csv         the object's full reported history
//   <id>-<gen>.model       its trained HybridPredictor, when it has one
//   wal-<shard>-<seq>.log  a journal segment (in the journal directory;
//                          io/wal.h has the frame format)
//
// The name parsers accept exactly what the formatters emit: decimal
// numbers without a sign (ids may be negative), leading zeros or
// overflow, and shards that fit a non-negative int. A parsed name
// therefore always round-trips, which the fetch whitelist relies on to
// refuse every other path.

#ifndef HPM_IO_STORE_LAYOUT_H_
#define HPM_IO_STORE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hpm {

inline constexpr char kCurrentFileName[] = "CURRENT";

std::string ManifestFileName(uint64_t gen);
bool ParseManifestFileName(std::string_view name, uint64_t* gen);

/// CURRENT's content for generation `gen`, and its parser (which
/// tolerates any trailing line ending).
std::string FormatCurrent(uint64_t gen);
bool ParseCurrent(std::string_view content, uint64_t* gen);

std::string CsvFileName(int64_t id, uint64_t gen);
std::string ModelFileName(int64_t id, uint64_t gen);
/// Parses "<id>-<gen>.csv" or "<id>-<gen>.model".
bool ParseObjectFileName(std::string_view name, int64_t* id, uint64_t* gen);

std::string SegmentFileName(int shard, uint64_t seq);
bool ParseSegmentFileName(std::string_view name, int* shard, uint64_t* seq);

/// One object line of a manifest.
struct ManifestEntry {
  int64_t id = 0;
  size_t history_len = 0;
  size_t consumed = 0;
  bool has_model = false;
  uint32_t csv_crc = 0;
};

/// The complete manifest text: header, one line per entry, CRC line.
std::string FormatManifest(const std::vector<ManifestEntry>& entries);

/// Parses and checksum-verifies a manifest. DataLoss on any damage; the
/// manifest itself is then the corrupt file.
Status ParseManifest(const std::string& content,
                     std::vector<ManifestEntry>* entries);

}  // namespace hpm

#endif  // HPM_IO_STORE_LAYOUT_H_
