#include "wal/wal.h"

#include "common/crc32.h"
#include "wal/serializer.h"

namespace bdbms {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 crc + u32 len

}  // namespace

std::string EncodeWalRecord(const WalRecord& rec) {
  std::string payload;
  BinaryWriter w(&payload);
  w.U64(rec.lsn);
  w.U64(rec.clock);
  w.U8(static_cast<uint8_t>(rec.kind));
  w.Str(rec.user);
  w.Str(rec.sql);
  w.U8(rec.versioned);
  w.U64(rec.snapshot);
  w.U64(rec.csn);
  w.U32(static_cast<uint32_t>(rec.row_bases.size()));
  for (const auto& [name, base] : rec.row_bases) {
    w.Str(name);
    w.U64(base);
  }
  w.U32(static_cast<uint32_t>(rec.ann_bases.size()));
  for (const auto& [name, base] : rec.ann_bases) {
    w.Str(name);
    w.U64(base);
  }

  std::string framed;
  BinaryWriter f(&framed);
  f.U32(0);  // crc placeholder
  f.U32(static_cast<uint32_t>(payload.size()));
  framed += payload;
  uint32_t crc = Crc32(std::string_view(framed).substr(4));
  // Patch the placeholder in place (little-endian).
  for (size_t i = 0; i < 4; ++i) {
    framed[i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return framed;
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
    if (Crc32(crc_span) != crc) break;  // corrupted record: cut here

    BinaryReader r(data.substr(pos + kFrameHeader, len));
    WalRecord rec;
    BDBMS_ASSIGN_OR_RETURN(rec.lsn, r.U64());
    BDBMS_ASSIGN_OR_RETURN(rec.clock, r.U64());
    BDBMS_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(WalRecordKind::kTxnCommit)) {
      return Status::Corruption("WAL record kind out of range: " +
                                std::to_string(kind));
    }
    rec.kind = static_cast<WalRecordKind>(kind);
    BDBMS_ASSIGN_OR_RETURN(rec.user, r.Str());
    BDBMS_ASSIGN_OR_RETURN(rec.sql, r.Str());
    BDBMS_ASSIGN_OR_RETURN(rec.versioned, r.U8());
    BDBMS_ASSIGN_OR_RETURN(rec.snapshot, r.U64());
    BDBMS_ASSIGN_OR_RETURN(rec.csn, r.U64());
    BDBMS_ASSIGN_OR_RETURN(uint32_t nrow, r.U32());
    for (uint32_t i = 0; i < nrow; ++i) {
      std::pair<std::string, uint64_t> entry;
      BDBMS_ASSIGN_OR_RETURN(entry.first, r.Str());
      BDBMS_ASSIGN_OR_RETURN(entry.second, r.U64());
      rec.row_bases.push_back(std::move(entry));
    }
    BDBMS_ASSIGN_OR_RETURN(uint32_t nann, r.U32());
    for (uint32_t i = 0; i < nann; ++i) {
      std::pair<std::string, uint64_t> entry;
      BDBMS_ASSIGN_OR_RETURN(entry.first, r.Str());
      BDBMS_ASSIGN_OR_RETURN(entry.second, r.U64());
      rec.ann_bases.push_back(std::move(entry));
    }
    if (!r.AtEnd()) {
      return Status::Corruption("WAL record at lsn " +
                                std::to_string(rec.lsn) +
                                " has trailing bytes");
    }
    if (rec.lsn <= prev_lsn) {
      return Status::Corruption("WAL lsn not increasing: " +
                                std::to_string(rec.lsn) + " after " +
                                std::to_string(prev_lsn));
    }
    prev_lsn = rec.lsn;
    scan.record_offsets.push_back(pos);
    pos += kFrameHeader + len;
    scan.records.push_back(std::move(rec));
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

Status WalWriter::Append(const WalRecord& rec) {
  std::string framed = EncodeWalRecord(rec);
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
