#include "net/protocol.h"

#include "common/codec.h"
#include "io/store_layout.h"
#include "net/frame.h"

namespace hpm {

namespace {

constexpr uint8_t kLastStatusCode = static_cast<uint8_t>(StatusCode::kDataLoss);
constexpr size_t kMaxListedSegments = 1 << 16;
constexpr size_t kMaxResultEntries = 1 << 20;
// Encoded sizes of the smallest list entries. A count promising more
// entries than the remaining bytes can hold is a lying length, rejected
// before anything is reserved for it.
constexpr size_t kMinPredictionBytes = 8 + 8 + 8 + 1 + 8 + 8 + 8 + 1 + 1;
constexpr size_t kMinFleetHitBytes = 8 + kMinPredictionBytes;
constexpr size_t kSegmentBytes = 4 + 8 + 8 + 8;

void PutMsgType(std::string* out, MsgType type) {
  codec::PutU8(out, static_cast<uint8_t>(type));
}

void PutPrediction(std::string* out, const Prediction& p) {
  codec::PutF64(out, p.location.x);
  codec::PutF64(out, p.location.y);
  codec::PutF64(out, p.score);
  codec::PutU8(out, static_cast<uint8_t>(p.source));
  codec::PutI64(out, p.pattern_id);
  codec::PutI64(out, p.consequence_region);
  codec::PutF64(out, p.confidence);
  codec::PutU8(out, p.uncertainty.IsEmpty() ? 0 : 1);
  if (!p.uncertainty.IsEmpty()) {
    codec::PutF64(out, p.uncertainty.min().x);
    codec::PutF64(out, p.uncertainty.min().y);
    codec::PutF64(out, p.uncertainty.max().x);
    codec::PutF64(out, p.uncertainty.max().y);
  }
  codec::PutU8(out, static_cast<uint8_t>(p.degraded));
}

bool GetPrediction(codec::Cursor* cursor, Prediction* p) {
  uint8_t source = 0;
  uint8_t degraded = 0;
  uint8_t has_uncertainty = 0;
  int64_t pattern_id = 0;
  int64_t consequence_region = 0;
  cursor->F64(&p->location.x);
  cursor->F64(&p->location.y);
  cursor->F64(&p->score);
  cursor->U8(&source);
  cursor->I64(&pattern_id);
  cursor->I64(&consequence_region);
  cursor->F64(&p->confidence);
  if (!cursor->U8(&has_uncertainty)) return false;
  if (has_uncertainty != 0) {
    Point lo, hi;
    cursor->F64(&lo.x);
    cursor->F64(&lo.y);
    cursor->F64(&hi.x);
    if (!cursor->F64(&hi.y)) return false;
    p->uncertainty = BoundingBox(lo, hi);
  }
  if (!cursor->U8(&degraded)) return false;
  if (source > static_cast<uint8_t>(PredictionSource::kMotionFunction) ||
      degraded > static_cast<uint8_t>(DegradedReason::kOverloaded)) {
    return false;
  }
  p->source = static_cast<PredictionSource>(source);
  p->degraded = static_cast<DegradedReason>(degraded);
  p->pattern_id = static_cast<int>(pattern_id);
  p->consequence_region = static_cast<int>(consequence_region);
  return true;
}

}  // namespace

const char* ServerRoleName(ServerRole role) {
  switch (role) {
    case ServerRole::kPrimary:
      return "primary";
    case ServerRole::kReplica:
      return "replica";
  }
  return "unknown";
}

std::string EncodePing() {
  std::string out;
  PutMsgType(&out, MsgType::kPing);
  return out;
}

std::string EncodeReport(const ReportRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReport);
  codec::PutI64(&out, req.id);
  codec::PutI64(&out, req.t);
  codec::PutF64(&out, req.x);
  codec::PutF64(&out, req.y);
  return out;
}

std::string EncodePredict(const PredictRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kPredict);
  codec::PutI64(&out, req.id);
  codec::PutI64(&out, req.tq);
  codec::PutI32(&out, req.k);
  codec::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeRange(const RangeRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kRange);
  codec::PutF64(&out, req.min_x);
  codec::PutF64(&out, req.min_y);
  codec::PutF64(&out, req.max_x);
  codec::PutF64(&out, req.max_y);
  codec::PutI64(&out, req.tq);
  codec::PutI32(&out, req.k_per_object);
  codec::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeKnn(const KnnRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kKnn);
  codec::PutF64(&out, req.x);
  codec::PutF64(&out, req.y);
  codec::PutI64(&out, req.tq);
  codec::PutI32(&out, req.n);
  codec::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeStats() {
  std::string out;
  PutMsgType(&out, MsgType::kStats);
  return out;
}

std::string EncodeReplState(const ReplStateRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReplState);
  codec::PutU64(&out, req.follower_lag_bytes);
  codec::PutU64(&out, req.follower_applied_records);
  return out;
}

std::string EncodeReplFetch(const ReplFetchRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReplFetch);
  codec::PutString(&out, req.name);
  codec::PutU64(&out, req.offset);
  codec::PutU32(&out, req.max_bytes);
  return out;
}

std::string EncodeReply(const Status& status, const ReplyInfo& info,
                        const std::string& body) {
  std::string out;
  PutMsgType(&out, MsgType::kReply);
  codec::PutU8(&out, static_cast<uint8_t>(status.code()));
  codec::PutString(&out, status.message());
  codec::PutU8(&out, static_cast<uint8_t>(info.role));
  codec::PutU64(&out, info.generation);
  codec::PutU64(&out, info.staleness_us);
  codec::PutU8(&out, info.stale_degraded ? 1 : 0);
  out += body;
  return out;
}

std::string EncodePredictionsBody(
    const std::vector<Prediction>& predictions) {
  std::string out;
  codec::PutU32(&out, static_cast<uint32_t>(predictions.size()));
  for (const Prediction& p : predictions) PutPrediction(&out, p);
  return out;
}

std::string EncodeFleetBody(const FleetQueryResult& result) {
  std::string out;
  codec::PutU8(&out, result.partial ? 1 : 0);
  codec::PutU32(&out, static_cast<uint32_t>(result.skipped_shards.size()));
  for (int shard : result.skipped_shards) {
    codec::PutU32(&out, static_cast<uint32_t>(shard));
  }
  codec::PutU32(&out, static_cast<uint32_t>(result.hits.size()));
  for (const RangeHit& hit : result.hits) {
    codec::PutI64(&out, hit.id);
    PutPrediction(&out, hit.prediction);
  }
  return out;
}

std::string EncodeStatsBody(const std::string& json) {
  std::string out;
  codec::PutString(&out, json);
  return out;
}

std::string EncodeReplStateBody(uint64_t generation,
                                const std::vector<WireSegment>& segments) {
  std::string out;
  codec::PutU64(&out, generation);
  codec::PutU32(&out, static_cast<uint32_t>(segments.size()));
  for (const WireSegment& segment : segments) {
    codec::PutU32(&out, static_cast<uint32_t>(segment.shard));
    codec::PutU64(&out, segment.seq);
    codec::PutU64(&out, segment.base_gen);
    codec::PutU64(&out, segment.size);
  }
  return out;
}

std::string EncodeReplFetchBody(uint64_t file_size, bool eof,
                                const std::string& bytes) {
  std::string out;
  codec::PutU64(&out, file_size);
  codec::PutU8(&out, eof ? 1 : 0);
  codec::PutString(&out, bytes);
  return out;
}

Status DecodeReply(const std::string& payload, ReplyInfo* info,
                   std::string* body, Status* transported) {
  codec::Cursor cursor(payload);
  uint8_t type = 0;
  uint8_t code = 0;
  uint8_t role = 0;
  uint8_t stale_degraded = 0;
  std::string message;
  cursor.U8(&type);
  cursor.U8(&code);
  cursor.String(&message);
  cursor.U8(&role);
  cursor.U64(&info->generation);
  cursor.U64(&info->staleness_us);
  if (!cursor.U8(&stale_degraded) ||
      type != static_cast<uint8_t>(MsgType::kReply) ||
      code > kLastStatusCode ||
      role > static_cast<uint8_t>(ServerRole::kReplica)) {
    return Status::DataLoss("malformed reply envelope");
  }
  info->role = static_cast<ServerRole>(role);
  info->stale_degraded = stale_degraded != 0;
  // The envelope is everything the reads above consumed; the body is
  // the remainder.
  if (body != nullptr) *body = payload.substr(cursor.pos());
  *transported = code == 0
                     ? Status::OK()
                     : Status(static_cast<StatusCode>(code),
                              std::move(message));
  return Status::OK();
}

Status DecodePredictionsBody(const std::string& body,
                             std::vector<Prediction>* predictions) {
  codec::Cursor cursor(body);
  uint32_t count = 0;
  if (!cursor.U32(&count) || count > kMaxResultEntries ||
      count > cursor.remaining() / kMinPredictionBytes) {
    return Status::DataLoss("malformed predictions body");
  }
  predictions->clear();
  predictions->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Prediction p;
    if (!GetPrediction(&cursor, &p)) {
      return Status::DataLoss("malformed prediction entry");
    }
    predictions->push_back(std::move(p));
  }
  if (!cursor.done()) return Status::DataLoss("trailing prediction bytes");
  return Status::OK();
}

Status DecodeFleetBody(const std::string& body, FleetQueryResult* result) {
  codec::Cursor cursor(body);
  uint8_t partial = 0;
  uint32_t skipped = 0;
  cursor.U8(&partial);
  if (!cursor.U32(&skipped) || skipped > kMaxResultEntries) {
    return Status::DataLoss("malformed fleet body");
  }
  result->partial = partial != 0;
  result->skipped_shards.clear();
  for (uint32_t i = 0; i < skipped; ++i) {
    uint32_t shard = 0;
    if (!cursor.U32(&shard)) return Status::DataLoss("malformed fleet body");
    result->skipped_shards.push_back(static_cast<int>(shard));
  }
  uint32_t hits = 0;
  if (!cursor.U32(&hits) || hits > kMaxResultEntries ||
      hits > cursor.remaining() / kMinFleetHitBytes) {
    return Status::DataLoss("malformed fleet body");
  }
  result->hits.clear();
  result->hits.reserve(hits);
  for (uint32_t i = 0; i < hits; ++i) {
    RangeHit hit;
    if (!cursor.I64(&hit.id) || !GetPrediction(&cursor, &hit.prediction)) {
      return Status::DataLoss("malformed fleet hit");
    }
    result->hits.push_back(std::move(hit));
  }
  if (!cursor.done()) return Status::DataLoss("trailing fleet bytes");
  return Status::OK();
}

Status DecodeStatsBody(const std::string& body, std::string* json) {
  codec::Cursor cursor(body);
  if (!cursor.String(json, kMaxResultEntries) || !cursor.done()) {
    return Status::DataLoss("malformed stats body");
  }
  return Status::OK();
}

Status DecodeReplStateBody(const std::string& body, uint64_t* generation,
                           std::vector<WireSegment>* segments) {
  codec::Cursor cursor(body);
  uint32_t count = 0;
  cursor.U64(generation);
  if (!cursor.U32(&count) || count > kMaxListedSegments ||
      count > cursor.remaining() / kSegmentBytes) {
    return Status::DataLoss("malformed repl-state body");
  }
  segments->clear();
  segments->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireSegment segment;
    uint32_t shard = 0;
    cursor.U32(&shard);
    cursor.U64(&segment.seq);
    cursor.U64(&segment.base_gen);
    if (!cursor.U64(&segment.size)) {
      return Status::DataLoss("malformed repl-state segment");
    }
    segment.shard = static_cast<int>(shard);
    segments->push_back(segment);
  }
  if (!cursor.done()) return Status::DataLoss("trailing repl-state bytes");
  return Status::OK();
}

Status DecodeReplFetchBody(const std::string& body, uint64_t* file_size,
                           bool* eof, std::string* bytes) {
  codec::Cursor cursor(body);
  uint8_t eof_byte = 0;
  cursor.U64(file_size);
  cursor.U8(&eof_byte);
  if (!cursor.String(bytes, kMaxNetPayloadBytes) || !cursor.done()) {
    return Status::DataLoss("malformed repl-fetch body");
  }
  *eof = eof_byte != 0;
  return Status::OK();
}

Status DecodeRequest(const std::string& payload, Request* request) {
  codec::Cursor cursor(payload);
  uint8_t type = 0;
  if (!cursor.U8(&type)) return Status::DataLoss("empty request");
  request->type = static_cast<MsgType>(type);
  switch (request->type) {
    case MsgType::kPing:
    case MsgType::kStats:
      break;
    case MsgType::kReport:
      cursor.I64(&request->report.id);
      cursor.I64(&request->report.t);
      cursor.F64(&request->report.x);
      cursor.F64(&request->report.y);
      break;
    case MsgType::kPredict:
      cursor.I64(&request->predict.id);
      cursor.I64(&request->predict.tq);
      cursor.I32(&request->predict.k);
      cursor.U64(&request->predict.deadline_us);
      break;
    case MsgType::kRange:
      cursor.F64(&request->range.min_x);
      cursor.F64(&request->range.min_y);
      cursor.F64(&request->range.max_x);
      cursor.F64(&request->range.max_y);
      cursor.I64(&request->range.tq);
      cursor.I32(&request->range.k_per_object);
      cursor.U64(&request->range.deadline_us);
      break;
    case MsgType::kKnn:
      cursor.F64(&request->knn.x);
      cursor.F64(&request->knn.y);
      cursor.I64(&request->knn.tq);
      cursor.I32(&request->knn.n);
      cursor.U64(&request->knn.deadline_us);
      break;
    case MsgType::kReplState:
      cursor.U64(&request->repl_state.follower_lag_bytes);
      cursor.U64(&request->repl_state.follower_applied_records);
      break;
    case MsgType::kReplFetch:
      cursor.String(&request->repl_fetch.name, 4096);
      cursor.U64(&request->repl_fetch.offset);
      cursor.U32(&request->repl_fetch.max_bytes);
      break;
    case MsgType::kReply:
      return Status::DataLoss("reply message sent as request");
    default:
      return Status::DataLoss("unknown message type " +
                              std::to_string(type));
  }
  if (!cursor.done()) {
    return Status::DataLoss("malformed request body for type " +
                            std::to_string(type));
  }
  return Status::OK();
}

bool IsFetchableStoreFile(const std::string& name, bool* is_wal) {
  // Only names the store layout itself could have written: every parser
  // there accepts just the canonical spelling, so no path separator, dot
  // segment or alternate number spelling gets through.
  uint64_t gen = 0, seq = 0;
  int64_t id = 0;
  int shard = 0;
  *is_wal = name.starts_with(kWalFetchPrefix) &&
            ParseSegmentFileName(
                std::string_view(name).substr(kWalFetchPrefix.size()),
                &shard, &seq);
  return *is_wal || name == kCurrentFileName ||
         ParseManifestFileName(name, &gen) ||
         ParseObjectFileName(name, &id, &gen);
}

}  // namespace hpm
