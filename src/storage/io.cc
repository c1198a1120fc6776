// lint:raw-io (this file IS the seam: every raw write lives here)
#include "storage/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace eba {

namespace fs = std::filesystem;

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " +
                          std::strerror(errno));  // lint:raw-io
}

/// POSIX-backed file: buffered writes via stdio, Sync = fflush + fsync.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("append to closed file: " + path_);
    }
    if (data.empty()) return Status::OK();
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return IoError("write failed for", path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("sync of closed file: " + path_);
    }
    if (std::fflush(file_) != 0) return IoError("flush failed for", path_);
    if (::fsync(::fileno(file_)) != 0) return IoError("fsync failed for", path_);
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) return IoError("close failed for", path_);
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  /// One sized read straight into the result: recovery reads every WAL
  /// and checkpoint file through here.
  StatusOr<std::string> ReadFileToString(const std::string& path) override {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::NotFound("cannot open '" + path + "'");
    std::string data(static_cast<size_t>(in.tellg()), '\0');
    in.seekg(0);
    if (!in.read(data.data(), static_cast<std::streamsize>(data.size()))) {
      return Status::Internal("read failed for '" + path + "'");
    }
    return data;
  }

  bool FileExists(const std::string& path) override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  StatusOr<std::vector<std::string>> ListDir(
      const std::string& path) override {
    std::error_code ec;
    if (!fs::is_directory(path, ec)) {
      return Status::NotFound("not a directory: '" + path + "'");
    }
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) {
      return Status::Internal("cannot list '" + path + "': " + ec.message());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    std::FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (f == nullptr) return IoError("cannot open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(f, path));
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) {
      return Status::Internal("cannot create '" + path + "': " + ec.message());
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) {
      return Status::Internal("cannot rename '" + from + "' -> '" + to +
                              "': " + ec.message());
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      return Status::Internal("cannot remove '" + path + "'" +
                              (ec ? ": " + ec.message() : ""));
    }
    return Status::OK();
  }

  Status RemoveAll(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) {
      return Status::Internal("cannot remove '" + path + "': " + ec.message());
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    std::error_code ec;
    fs::resize_file(path, size, ec);
    if (ec) {
      return Status::Internal("cannot truncate '" + path +
                              "': " + ec.message());
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return IoError("cannot open directory", path);
    const int rc = ::fsync(fd);
    ::close(fd);
    // Some filesystems refuse fsync on directories (EINVAL); a completed
    // rename is still the best available publish on them.
    if (rc != 0 && errno != EINVAL) return IoError("fsync failed for", path);
    return Status::OK();
  }
};

std::string ParentDir(const std::string& path) {
  const std::string parent = fs::path(path).parent_path().string();
  return parent.empty() ? "." : parent;
}

}  // namespace

Status Env::WriteFile(const std::string& path, std::string_view data) {
  EBA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       NewWritableFile(path, /*truncate=*/true));
  EBA_RETURN_IF_ERROR(file->Append(data));
  EBA_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status Env::WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  EBA_RETURN_IF_ERROR(WriteFile(tmp, data));
  EBA_RETURN_IF_ERROR(RenameFile(tmp, path));
  return SyncDir(ParentDir(path));
}

Env* RealEnv() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

// --- FaultInjectingEnv ---

namespace {

Status DeadStatus() {
  return Status::Internal("injected fault: process killed");
}

}  // namespace

/// Wraps a base WritableFile, charging each call against the env's op
/// budget. The killing Append lands the first half of its data (torn).
/// Namespace-scope (not anonymous) so the friend declaration in io.h finds
/// it.
class FaultInjectingFile : public WritableFile {
 public:
  FaultInjectingFile(FaultInjectingEnv* env,
                     std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectingEnv::OpFate FaultInjectingEnv::BeginWriteOp() {
  if (dead_.load(std::memory_order_relaxed)) return OpFate::kAlreadyDead;
  const uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
  if (op >= kill_at_.load(std::memory_order_relaxed)) {
    dead_.store(true, std::memory_order_relaxed);
    return OpFate::kKilledNow;
  }
  return OpFate::kAlive;
}

Status FaultInjectingFile::Append(std::string_view data) {
  const auto fate = env_->BeginWriteOp();
  if (fate == FaultInjectingEnv::OpFate::kAlive) return base_->Append(data);
  // The op that kills the process may have partially reached the kernel:
  // land a deterministic prefix so recovery faces a torn record.
  if (fate == FaultInjectingEnv::OpFate::kKilledNow && !data.empty()) {
    (void)base_->Append(data.substr(0, data.size() / 2));
    (void)base_->Sync();
  }
  return DeadStatus();
}

Status FaultInjectingFile::Sync() {
  if (env_->BeginWriteOp() != FaultInjectingEnv::OpFate::kAlive) {
    return DeadStatus();
  }
  return base_->Sync();
}

Status FaultInjectingFile::Close() {
  if (env_->BeginWriteOp() != FaultInjectingEnv::OpFate::kAlive) {
    return DeadStatus();
  }
  return base_->Close();
}

StatusOr<std::string> FaultInjectingEnv::ReadFileToString(
    const std::string& path) {
  if (dead()) return DeadStatus();
  return base_->ReadFileToString(path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return !dead() && base_->FileExists(path);
}

StatusOr<std::vector<std::string>> FaultInjectingEnv::ListDir(
    const std::string& path) {
  if (dead()) return DeadStatus();
  return base_->ListDir(path);
}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  EBA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->NewWritableFile(path, truncate));
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultInjectingFile>(this, std::move(base)));
}

Status FaultInjectingEnv::CreateDirs(const std::string& path) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  return base_->CreateDirs(path);
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::RemoveAll(const std::string& path) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  return base_->RemoveAll(path);
}

Status FaultInjectingEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  return base_->TruncateFile(path, size);
}

Status FaultInjectingEnv::SyncDir(const std::string& path) {
  if (BeginWriteOp() != OpFate::kAlive) return DeadStatus();
  return base_->SyncDir(path);
}

}  // namespace eba
