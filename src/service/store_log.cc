#include "service/store_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "kdb/storage.h"
#include "service/fingerprint.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {

/// Fold floor: dead bytes must exceed this as well as the live bytes.
constexpr size_t kFoldMinDeadBytes = size_t{1} << 20;
/// The checksum is this many hex digits, then one space, then the body.
constexpr size_t kChecksumChars = 16;

std::string Checksum(std::string_view body) {
  Fnv1a hash;
  hash.Mix(body.data(), body.size());
  return common::StrFormat("%016llx",
                           static_cast<unsigned long long>(hash.digest()));
}

/// Parses one committed line (without its newline) into its JSON body.
StatusOr<Json> ParseEntryLine(std::string_view line) {
  if (line.size() <= kChecksumChars + 1 || line[kChecksumChars] != ' ') {
    return common::DataLossError("entry has no checksum");
  }
  const std::string_view body = line.substr(kChecksumChars + 1);
  if (line.substr(0, kChecksumChars) != Checksum(body)) {
    return common::DataLossError("entry checksum mismatch");
  }
  ADA_ASSIGN_OR_RETURN(Json entry, Json::Parse(body));
  if (!entry.is_object()) {
    return common::DataLossError("entry is not a JSON object");
  }
  return entry;
}

}  // namespace

std::string EntryLine(std::string_view body) {
  std::string line = Checksum(body);
  line.reserve(kChecksumChars + body.size() + 2);
  line.push_back(' ');
  line.append(body);
  line.push_back('\n');
  return line;
}

StoreLog::StoreLog(const std::string& directory, const char* file,
                   const char* torn_failpoint)
    : path_(directory + "/" + file), torn_failpoint_(torn_failpoint) {
  ::mkdir(directory.c_str(), 0755);  // Best-effort; may exist.
}

Status StoreLog::Replay(
    const std::function<Status(const Json& entry, size_t bytes)>& apply) {
  StatusOr<std::string> text = common::ReadFileToString(path_);
  if (text.status().code() == common::StatusCode::kNotFound) {
    text = std::string();  // No commit yet.
  }
  ADA_RETURN_IF_ERROR(text.status());
  const size_t newline = text->rfind('\n');
  const size_t committed = newline == std::string::npos ? 0 : newline + 1;
  if (text->size() > committed) {
    ADA_LOG(kWarning) << "store log: ignoring " << text->size() - committed
                      << " uncommitted byte(s) at the end of " << path_;
  }
  end_ = static_cast<off_t>(committed);
  const std::string_view log = std::string_view(*text).substr(0, committed);
  size_t start = 0;
  for (size_t number = 1; start < log.size(); ++number) {
    const size_t end = log.find('\n', start);
    StatusOr<Json> entry = ParseEntryLine(log.substr(start, end - start));
    Status applied = entry.ok() ? apply(*entry, end + 1 - start)
                                : entry.status();
    if (!applied.ok()) {
      return common::DataLossError(common::StrFormat(
          "%s: committed entry %zu at byte %zu is corrupt: %s", path_.c_str(),
          number, start, applied.message().c_str()));
    }
    start = end + 1;
  }
  return common::OkStatus();
}

StatusOr<size_t> StoreLog::Append(std::string_view body) {
  ADA_RETURN_IF_ERROR(broken_);
  ADA_RETURN_IF_ERROR(EnsureOpen());
  const std::string line = EntryLine(body);
  // The crash window: the body is down but its committing newline is
  // not. A failed write leaves the same state (the newline is its last
  // byte), and the next append overwrites it.
  const Status torn = ADA_FAILPOINT(torn_failpoint_);
  ADA_RETURN_IF_ERROR(
      WriteAt(line.data(), torn.ok() ? line.size() : line.size() - 1));
  ADA_RETURN_IF_ERROR(torn);
  if (::fdatasync(fd_.get()) != 0) {
    // The entry, newline included, may or may not be durable; only a
    // replay can tell. Refuse to write after it until the owner
    // reopens, so no later entry lands behind one of unknown fate.
    broken_ = common::DataLossError(
        "fdatasync failed on " + path_ +
        "; the log accepts no commit until it reopens");
    return broken_;
  }
  end_ += static_cast<off_t>(line.size());
  return line.size();
}

bool StoreLog::FoldDue(size_t live_bytes, size_t dead_bytes) {
  return dead_bytes > live_bytes && dead_bytes > kFoldMinDeadBytes;
}

Status StoreLog::Fold(const std::string& contents) {
  if (Status folded = kdb::AtomicWriteFile(path_, contents); !folded.ok()) {
    ADA_LOG(kWarning) << "store log: fold of " << path_ << " failed ("
                      << folded.ToString() << "); it keeps its dead bytes";
    return folded;
  }
  ADA_LOG(kInfo) << "store log: folded " << path_ << " to "
                 << contents.size() << " byte(s)";
  fd_.Close();  // It still names the replaced file.
  end_ = static_cast<off_t>(contents.size());
  return common::OkStatus();
}

Status StoreLog::EnsureOpen() {
  if (fd_.valid()) return common::OkStatus();
  fd_ = FileDescriptor(::open(path_.c_str(), O_WRONLY | O_CLOEXEC));
  if (fd_.valid()) return common::OkStatus();
  fd_ = FileDescriptor(
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644));
  if (!fd_.valid()) {
    return common::UnavailableError("cannot open store log " + path_);
  }
  // Make the new file's name durable, so the first entry's fdatasync
  // cannot outlive it.
  const size_t slash = path_.find_last_of('/');
  FileDescriptor dir(::open(path_.substr(0, slash).c_str(), O_RDONLY));
  if (!dir.valid() || ::fsync(dir.get()) != 0) {
    ADA_LOG(kWarning) << "store log: directory fsync failed for " << path_;
  }
  return common::OkStatus();
}

Status StoreLog::WriteAt(const char* data, size_t size) {
  off_t offset = end_;
  while (size > 0) {
    const ssize_t written = ::pwrite(fd_.get(), data, size, offset);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      return common::DataLossError("write error on " + path_);
    }
    data += written;
    size -= static_cast<size_t>(written);
    offset += written;
  }
  return common::OkStatus();
}

}  // namespace service
}  // namespace adahealth
