#include "wal/wal.h"

#include "common/crc32.h"
#include "wal/serializer.h"

namespace bdbms {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 crc + u32 len

// First payload byte of every frame. A log written before frames existed
// starts its payload with an lsn instead; a CRC-valid payload that does
// not decode as exactly this layout is reported, never skipped.
constexpr uint8_t kFrameFormat = 1;

void PutBases(BinaryWriter& w, const WalIdBases& bases) {
  for (const auto* list : {&bases.rows, &bases.annotations}) {
    w.U32(static_cast<uint32_t>(list->size()));
    for (const auto& [name, base] : *list) {
      w.Str(name);
      w.U64(base);
    }
  }
}

Status GetBases(BinaryReader& r, WalIdBases* bases) {
  for (auto* list : {&bases->rows, &bases->annotations}) {
    BDBMS_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    for (uint32_t i = 0; i < n; ++i) {
      BDBMS_ASSIGN_OR_RETURN(std::string name, r.Str());
      BDBMS_ASSIGN_OR_RETURN(uint64_t base, r.U64());
      list->emplace_back(std::move(name), base);
    }
  }
  return Status::Ok();
}

// Decodes one CRC-valid payload; `prev_lsn` is the last lsn before it.
Result<WalFrame> DecodeFrame(std::string_view payload, uint64_t prev_lsn) {
  BinaryReader r(payload);
  BDBMS_ASSIGN_OR_RETURN(uint8_t format, r.U8());
  if (format != kFrameFormat) {
    return Status::Corruption("WAL frame format " + std::to_string(format) +
                              " is not " + std::to_string(kFrameFormat));
  }
  WalFrame frame;
  BDBMS_ASSIGN_OR_RETURN(frame.csn, r.U64());
  BDBMS_ASSIGN_OR_RETURN(uint32_t n, r.U32());
  if (n == 0) return Status::Corruption("WAL frame holds no statements");
  for (uint32_t i = 0; i < n; ++i) {
    WalStatement s;
    BDBMS_ASSIGN_OR_RETURN(s.lsn, r.U64());
    BDBMS_ASSIGN_OR_RETURN(s.clock, r.U64());
    BDBMS_ASSIGN_OR_RETURN(s.user, r.Str());
    BDBMS_ASSIGN_OR_RETURN(s.sql, r.Str());
    BDBMS_ASSIGN_OR_RETURN(s.snapshot, r.U64());
    BDBMS_RETURN_IF_ERROR(GetBases(r, &s.bases));
    if (s.lsn <= prev_lsn) {
      return Status::Corruption("WAL lsn not increasing: " +
                                std::to_string(s.lsn) + " after " +
                                std::to_string(prev_lsn));
    }
    prev_lsn = s.lsn;
    frame.statements.push_back(std::move(s));
  }
  BDBMS_RETURN_IF_ERROR(GetBases(r, &frame.end_bases));
  if (!r.AtEnd()) {
    return Status::Corruption("WAL frame ending at lsn " +
                              std::to_string(prev_lsn) +
                              " has trailing bytes");
  }
  return frame;
}

}  // namespace

std::string EncodeWalFrame(const WalFrame& frame) {
  std::string out(kFrameHeader, '\0');  // crc and len, patched below
  BinaryWriter w(&out);
  w.U8(kFrameFormat);
  w.U64(frame.csn);
  w.U32(static_cast<uint32_t>(frame.statements.size()));
  for (const WalStatement& s : frame.statements) {
    w.U64(s.lsn);
    w.U64(s.clock);
    w.Str(s.user);
    w.Str(s.sql);
    w.U64(s.snapshot);
    PutBases(w, s.bases);
  }
  PutBases(w, frame.end_bases);

  auto patch = [&out](size_t at, uint32_t v) {  // little-endian
    for (size_t i = 0; i < 4; ++i) {
      out[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  patch(4, static_cast<uint32_t>(out.size() - kFrameHeader));
  patch(0, Crc32(std::string_view(out).substr(4)));
  return out;
}

Result<WalScan> ScanWal(std::string_view data) {
  WalScan scan;
  size_t pos = 0;
  uint64_t prev_lsn = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) break;  // torn header
    BinaryReader header(data.substr(pos, kFrameHeader));
    uint32_t crc = header.U32().value();
    uint32_t len = header.U32().value();
    if (data.size() - pos - kFrameHeader < len) break;  // torn payload
    std::string_view crc_span = data.substr(pos + 4, 4 + len);
    if (Crc32(crc_span) != crc) break;  // corrupted frame: cut here

    BDBMS_ASSIGN_OR_RETURN(
        WalFrame frame, DecodeFrame(data.substr(pos + kFrameHeader, len),
                                    prev_lsn));
    prev_lsn = frame.statements.back().lsn;
    pos += kFrameHeader + len;
    scan.frames.push_back(std::move(frame));
    scan.valid_bytes = pos;
  }
  scan.tail_discarded = scan.valid_bytes < data.size();
  return scan;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalEnv* env,
                                                   const std::string& path) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> file,
                         env->OpenAppend(path));
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
}

Status WalWriter::Append(const WalFrame& frame) {
  std::string framed = EncodeWalFrame(frame);
  BDBMS_RETURN_IF_ERROR(file_->Append(framed));
  bytes_appended_ += framed.size();
  ++unsynced_;
  return Status::Ok();
}

Status WalWriter::Sync() {
  if (unsynced_ == 0) return Status::Ok();
  BDBMS_RETURN_IF_ERROR(file_->Sync());
  unsynced_ = 0;
  ++syncs_;
  return Status::Ok();
}

}  // namespace bdbms
