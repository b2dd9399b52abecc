#include "ingest/ingest_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/fnv1a.h"
#include "common/strings.h"
#include "fault/fault.h"

namespace domd {
namespace {

constexpr char kHeaderV1[] = "domd-ingest-log v1\n";
constexpr char kHeaderV2Prefix[] = "domd-ingest-log v2 ";

std::string EncodeRecord(const IngestMutation& mutation) {
  const std::string payload = EncodeMutation(mutation);
  return std::to_string(payload.size()) + " " + Hex64(Fnv1a(payload)) +
         " " + payload + "\n";
}

/// "domd-ingest-log v2 <base-seq> <base-chain-hex16>\n".
std::string EncodeHeaderV2(std::uint64_t base_seq,
                           std::uint64_t base_chain) {
  return std::string(kHeaderV2Prefix) + std::to_string(base_seq) + " " +
         Hex64(base_chain) + "\n";
}

/// Parses the v1 or v2 header line of `contents`. On success sets the
/// offset of the first record byte plus the base sequence/chain (0/0 for
/// v1, so every PR-9 log replays with records numbered from 1).
Status ParseHeader(std::string_view contents, std::size_t* record_begin,
                   std::uint64_t* base_seq, std::uint64_t* base_chain) {
  const std::string_view v1(kHeaderV1);
  if (contents.size() >= v1.size() && contents.substr(0, v1.size()) == v1) {
    *record_begin = v1.size();
    *base_seq = 0;
    *base_chain = 0;
    return Status::OK();
  }
  const std::string_view v2(kHeaderV2Prefix);
  if (contents.size() >= v2.size() && contents.substr(0, v2.size()) == v2) {
    const std::size_t eol = contents.find('\n', v2.size());
    const std::size_t sp = contents.find(' ', v2.size());
    if (eol == std::string_view::npos || sp == std::string_view::npos ||
        sp >= eol) {
      return Status::DataLoss("ingest log v2 header is malformed");
    }
    const std::string_view seq_text =
        contents.substr(v2.size(), sp - v2.size());
    const auto [sptr, sec] = std::from_chars(
        seq_text.data(), seq_text.data() + seq_text.size(), *base_seq);
    const std::string_view chain_text =
        contents.substr(sp + 1, eol - sp - 1);
    const auto [cptr, cec] =
        std::from_chars(chain_text.data(),
                        chain_text.data() + chain_text.size(), *base_chain,
                        16);
    if (sec != std::errc() || sptr != seq_text.data() + seq_text.size() ||
        cec != std::errc() ||
        cptr != chain_text.data() + chain_text.size() ||
        chain_text.size() != 16) {
      return Status::DataLoss("ingest log v2 header is malformed");
    }
    *record_begin = eol + 1;
    return Status::OK();
  }
  return Status::DataLoss("unrecognized ingest log header");
}

Status FsyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync failed for " + what + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncParentDir(const std::string& path) {
  return FsyncDirectory(std::filesystem::path(path).parent_path().string());
}

Status WriteAll(int fd, std::string_view bytes, const std::string& what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed for " + what + ": " +
                             std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// One complete record line (no trailing '\n'): length, checksum and
/// payload all consistent.
bool LineIsValidRecord(std::string_view line) {
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  std::size_t payload_len = 0;
  const auto [ptr, ec] = std::from_chars(
      line.data(), line.data() + sp1, payload_len);
  if (ec != std::errc() || ptr != line.data() + sp1) return false;
  if (line.size() != sp1 + 1 + 16 + 1 + payload_len) return false;
  if (line[sp1 + 17] != ' ') return false;
  const std::string_view payload = line.substr(sp1 + 18);
  std::uint64_t checksum = 0;
  const std::string_view checksum_text = line.substr(sp1 + 1, 16);
  const auto [cptr, cec] =
      std::from_chars(checksum_text.data(),
                      checksum_text.data() + checksum_text.size(),
                      checksum, 16);
  if (cec != std::errc() || checksum != Fnv1a(payload)) return false;
  return DecodeMutation(payload).ok();
}

/// Walks the record region after the header, validating length + checksum
/// line by line. Returns the byte offset just past the last intact record;
/// `*torn` reports whether a bad or incomplete record cut the walk short.
std::size_t ScanRecords(std::string_view contents, std::size_t begin,
                        std::vector<IngestMutation>* records, bool* torn) {
  std::size_t offset = begin;
  *torn = false;
  while (offset < contents.size()) {
    const std::size_t line_start = offset;
    // "<len> <hex16> <payload>\n"
    const std::size_t sp1 = contents.find(' ', offset);
    if (sp1 == std::string_view::npos) {
      *torn = true;
      return line_start;
    }
    std::size_t payload_len = 0;
    {
      const std::string_view len_text =
          contents.substr(offset, sp1 - offset);
      const auto [ptr, ec] = std::from_chars(
          len_text.data(), len_text.data() + len_text.size(), payload_len);
      if (ec != std::errc() ||
          ptr != len_text.data() + len_text.size()) {
        *torn = true;
        return line_start;
      }
    }
    const std::size_t checksum_begin = sp1 + 1;
    const std::size_t payload_begin = checksum_begin + 17;
    const std::size_t line_end = payload_begin + payload_len;
    if (line_end + 1 > contents.size() ||
        contents[checksum_begin + 16] != ' ' ||
        contents[line_end] != '\n') {
      *torn = true;
      return line_start;
    }
    const std::string_view payload =
        contents.substr(payload_begin, payload_len);
    const std::string_view checksum_text =
        contents.substr(checksum_begin, 16);
    std::uint64_t checksum = 0;
    const auto [ptr, ec] =
        std::from_chars(checksum_text.data(),
                        checksum_text.data() + checksum_text.size(),
                        checksum, 16);
    if (ec != std::errc() || checksum != Fnv1a(payload)) {
      *torn = true;
      return line_start;
    }
    auto mutation = DecodeMutation(payload);
    if (!mutation.ok()) {
      *torn = true;
      return line_start;
    }
    records->push_back(std::move(*mutation));
    offset = line_end + 1;
  }
  return offset;
}

}  // namespace

StatusOr<std::unique_ptr<IngestLog>> IngestLog::Open(
    const std::string& path, ReplayResult* replay) {
  *replay = ReplayResult();
  const Status fault = DOMD_FAULT_POINT("ingest.log.replay").Check();
  if (!fault.ok()) return fault;

  // A missing file is a fresh log; so is an empty one: both get a header.
  auto read = ReadFileToString(path);
  std::error_code exists_ec;
  if (!read.ok() && std::filesystem::exists(path, exists_ec)) {
    return Status::IoError("read failed for ingest log " + path);
  }
  const std::string contents = read.ok() ? std::move(*read) : std::string();
  const bool existed = !contents.empty();

  std::size_t good_end = 0;
  if (existed) {
    std::size_t record_begin = 0;
    const Status header = ParseHeader(contents, &record_begin,
                                      &replay->base_seq,
                                      &replay->base_chain);
    if (!header.ok()) {
      return Status::DataLoss("ingest log " + path + ": " +
                              header.message());
    }
    if (contents.size() < record_begin) {
      return Status::DataLoss("ingest log " + path +
                              " header is truncated");
    }
    bool torn = false;
    good_end = ScanRecords(contents, record_begin, &replay->records,
                           &torn);
    if (torn) {
      // A torn *tail* is the expected crash artifact and truncates
      // cleanly. Intact records after the bad region mean mid-file
      // corruption instead — refusing beats silently dropping durable
      // records, mirroring the bundle checksum contract.
      std::string_view rest = std::string_view(contents).substr(good_end);
      while (!rest.empty()) {
        const std::size_t eol = rest.find('\n');
        if (eol == std::string_view::npos) break;
        rest.remove_prefix(eol + 1);
        const std::size_t next_eol = rest.find('\n');
        if (next_eol != std::string_view::npos &&
            LineIsValidRecord(rest.substr(0, next_eol))) {
          return Status::DataLoss(
              "ingest log " + path +
              " is corrupt mid-file (valid records follow a bad one)");
        }
      }
      replay->truncated_bytes = contents.size() - good_end;
      std::error_code ec;
      std::filesystem::resize_file(path, good_end, ec);
      if (ec) {
        return Status::IoError("cannot truncate torn ingest log tail of " +
                               path + ": " + ec.message());
      }
    }
  }

  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open ingest log " + path + ": " +
                           std::strerror(errno));
  }
  auto log = std::unique_ptr<IngestLog>(
      new IngestLog(path, fd, existed ? good_end : 0));
  log->base_seq_ = replay->base_seq;
  log->base_chain_ = replay->base_chain;
  log->count_ = replay->records.size();
  if (!existed) {
    const std::string header = EncodeHeaderV2(0, 0);
    DOMD_RETURN_IF_ERROR(WriteAll(fd, header, path));
    DOMD_RETURN_IF_ERROR(FsyncFd(fd, path));
    DOMD_RETURN_IF_ERROR(FsyncParentDir(path));
    log->size_bytes_ = header.size();
  } else if (replay->truncated_bytes > 0) {
    DOMD_RETURN_IF_ERROR(FsyncFd(fd, path));
  }
  return log;
}

IngestLog::~IngestLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status IngestLog::Append(const IngestMutation& mutation) {
  return AppendBatch({mutation});
}

Status IngestLog::AppendBatch(
    const std::vector<IngestMutation>& mutations) {
  if (mutations.empty()) return Status::OK();
  const Status fault = DOMD_FAULT_POINT("ingest.log.append").Check();
  if (!fault.ok()) return fault;
  std::string buffer;
  for (const IngestMutation& mutation : mutations) {
    buffer += EncodeRecord(mutation);
  }
  DOMD_RETURN_IF_ERROR(WriteAll(fd_, buffer, path_));
  // Between the write above and the fsync below is exactly the window a
  // real torn write lives in: an injected fsync fault reports the batch
  // as not durable while the bytes may still land — replay's torn-tail
  // truncation owns that ambiguity.
  const Status fsync_fault = DOMD_FAULT_POINT("ingest.log.fsync").Check();
  if (!fsync_fault.ok()) return fsync_fault;
  DOMD_RETURN_IF_ERROR(FsyncFd(fd_, path_));
  size_bytes_ += buffer.size();
  appended_ += mutations.size();
  count_ += mutations.size();
  return Status::OK();
}

Status IngestLog::Rotate(const std::vector<IngestMutation>& still_pending,
                         std::uint64_t new_base_seq,
                         std::uint64_t new_base_chain) {
  // Never truncate the only durable copy. The replacement log is built in
  // a sibling file and made durable first; the rename below is the single
  // atomic commit point, so a crash anywhere leaves exactly one intact
  // log — the old one (extra merged records replay as idempotent upserts)
  // or the new one (exactly the still-pending suffix).
  const std::string tmp = path_ + ".rotate";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  std::string buffer = EncodeHeaderV2(new_base_seq, new_base_chain);
  for (const IngestMutation& mutation : still_pending) {
    buffer += EncodeRecord(mutation);
  }
  Status written = WriteAll(fd, buffer, tmp);
  if (written.ok()) written = FsyncFd(fd, tmp);
  if (written.ok()) written = DOMD_FAULT_POINT("ingest.log.rotate").Check();
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status renamed =
        Status::IoError("cannot rename " + tmp + " over ingest log " +
                        path_ + ": " + std::strerror(errno));
    ::close(fd);
    return renamed;
  }
  // `fd` already refers to the renamed inode with its offset at the end;
  // adopt it before the directory fsync so that even if that sync fails,
  // subsequent appends land in the live log, never the unlinked one.
  ::close(fd_);
  fd_ = fd;
  size_bytes_ = buffer.size();
  base_seq_ = new_base_seq;
  base_chain_ = new_base_chain;
  count_ = still_pending.size();
  return FsyncParentDir(path_);
}

Status WriteFileSynced(const std::string& path, std::string_view contents) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  Status written = WriteAll(fd, contents, path);
  if (written.ok()) written = FsyncFd(fd, path);
  if (::close(fd) != 0 && written.ok()) {
    written = Status::IoError("close failed for " + path + ": " +
                              std::strerror(errno));
  }
  return written;
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir for fsync failed: " + dir + ": " +
                           std::strerror(errno));
  }
  const Status synced = FsyncFd(fd, "dir " + dir);
  ::close(fd);
  return synced;
}

Status WriteFileDurably(const std::string& path,
                        const std::string& contents) {
  const std::string tmp = path + ".tmp";
  DOMD_RETURN_IF_ERROR(WriteFileSynced(tmp, contents));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp + " into place: " +
                           std::strerror(errno));
  }
  return FsyncParentDir(path);
}

}  // namespace domd
