#include "kdb/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace adahealth {
namespace kdb {

using common::Status;
using common::StatusOr;

namespace {

/// Truncated single-line payload preview for storage error messages,
/// so a torn write can be triaged without opening the file.
std::string PayloadPreview(std::string_view line) {
  constexpr size_t kMaxPreview = 48;
  std::string preview(line.substr(0, kMaxPreview));
  if (line.size() > kMaxPreview) preview += "...";
  return preview;
}

Status AnnotateLine(const Status& status, const std::string& name,
                    size_t line_number, std::string_view line) {
  return Status(status.code(),
                "collection '" + name + "' line " +
                    std::to_string(line_number) + " (payload '" +
                    PayloadPreview(line) + "'): " + status.message());
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp_path = path + ".tmp";
  auto fail = [&tmp_path](Status status) {
    std::remove(tmp_path.c_str());
    return status;
  };

  Status injected = ADA_FAILPOINT("kdb.storage.write");
  if (!injected.ok()) return fail(injected);

  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return common::UnavailableError("cannot open temp file for writing: " +
                                    tmp_path);
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), file);
  if (written != contents.size() || std::fflush(file) != 0) {
    std::fclose(file);
    return fail(common::DataLossError("write error on file: " + tmp_path));
  }

  injected = ADA_FAILPOINT("kdb.storage.fsync");
  if (!injected.ok()) {
    std::fclose(file);
    return fail(injected);
  }
  if (::fsync(::fileno(file)) != 0) {
    std::fclose(file);
    return fail(common::DataLossError("fsync failed on file: " + tmp_path));
  }
  if (std::fclose(file) != 0) {
    return fail(common::DataLossError("close failed on file: " + tmp_path));
  }

  injected = ADA_FAILPOINT("kdb.storage.rename");
  if (!injected.ok()) return fail(injected);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return fail(common::UnavailableError("rename failed: " + tmp_path +
                                         " -> " + path));
  }

  // Make the rename itself durable. Best-effort: a directory that
  // cannot be fsynced (some filesystems) only weakens durability, it
  // does not corrupt either file version.
  std::string directory = path;
  size_t slash = directory.find_last_of('/');
  directory = slash == std::string::npos ? "." : directory.substr(0, slash);
  int dir_fd = ::open(directory.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    if (::fsync(dir_fd) != 0) {
      ADA_LOG(kWarning) << "directory fsync failed for " << directory;
    }
    // Scoped open/fsync/close of a directory fd, not a socket.
    ::close(dir_fd);  // ada-lint: allow(raw-socket)
  }
  return common::OkStatus();
}

std::string SerializeCollection(const Collection& collection) {
  std::string out;
  for (const Document& document : collection.documents()) {
    out += document.Dump();
    out.push_back('\n');
  }
  return out;
}

StatusOr<Collection> DeserializeCollection(const std::string& name,
                                           const std::string& text) {
  Collection collection(name);
  size_t line_number = 0;
  for (const std::string& line : common::Split(text, '\n')) {
    ++line_number;
    std::string_view trimmed = common::Trim(line);
    if (trimmed.empty()) continue;
    auto document = Document::Parse(trimmed);
    if (!document.ok()) {
      return AnnotateLine(common::DataLossError(document.status().message()),
                          name, line_number, trimmed);
    }
    Status restored = collection.Restore(std::move(document).value());
    if (!restored.ok()) {
      return AnnotateLine(restored, name, line_number, trimmed);
    }
  }
  return collection;
}

Status SaveCollection(const Collection& collection,
                      const std::string& directory) {
  return AtomicWriteFile(directory + "/" + collection.name() + ".jsonl",
                         SerializeCollection(collection));
}

StatusOr<Collection> LoadCollection(const std::string& name,
                                    const std::string& directory) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("kdb.storage.read"));
  auto text = common::ReadFileToString(directory + "/" + name + ".jsonl");
  if (!text.ok()) return text.status();
  return DeserializeCollection(name, text.value());
}

}  // namespace kdb
}  // namespace adahealth
