#include "storage/lineage.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/file_sync.h"

namespace rigpm {

namespace {

constexpr char kHeadMagicLine[] = "rigpm-lineage 1";

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

std::string LineageHeadPath(const std::string& snapshot_path) {
  return snapshot_path + ".head";
}

std::string GenerationPath(const std::string& path, uint64_t generation) {
  return path + ".g" + std::to_string(generation);
}

bool ResolveLineage(const std::string& snapshot_path,
                    const std::string& delta_path, Lineage* out,
                    std::string* error) {
  out->snapshot_path = snapshot_path;
  out->delta_path = delta_path;
  out->generation = 0;
  const std::string head_path = LineageHeadPath(snapshot_path);
  std::ifstream in(head_path);
  if (!in) {
    if (errno == ENOENT || !std::filesystem::exists(head_path)) {
      return true;  // no head: generation 0, the configured paths
    }
    SetError(error, "cannot read lineage head " + head_path);
    return false;
  }
  // Text head file: magic line, then `key value` lines. Small enough that
  // a torn write is caught by the magic/field checks (and the publisher
  // renames a complete temp file into place, so a torn head only exists if
  // something other than PublishLineage wrote it).
  std::string line;
  if (!std::getline(in, line) || line != kHeadMagicLine) {
    SetError(error, head_path + " is not a rigpm lineage head (refusing to "
                        "guess the current generation)");
    return false;
  }
  bool have_gen = false, have_snap = false, have_delta = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "generation") {
      fields >> out->generation;
      have_gen = !fields.fail();
    } else if (key == "snapshot") {
      // Paths may contain spaces: the value is the rest of the line.
      out->snapshot_path = line.substr(std::strlen("snapshot "));
      have_snap = !out->snapshot_path.empty();
    } else if (key == "delta") {
      out->delta_path = line.substr(std::strlen("delta "));
      have_delta = !out->delta_path.empty();
    }
    // Unknown keys are ignored: forward compatibility for future fields.
  }
  if (!have_gen || !have_snap || !have_delta) {
    SetError(error, head_path + " is missing lineage fields (refusing to "
                        "guess the current generation)");
    return false;
  }
  return true;
}

bool PublishLineage(const std::string& snapshot_path, const Lineage& lineage,
                    std::string* error) {
  const std::string head_path = LineageHeadPath(snapshot_path);
  const std::string tmp_path =
      head_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      SetError(error, "cannot write " + tmp_path);
      return false;
    }
    out << kHeadMagicLine << "\n"
        << "generation " << lineage.generation << "\n"
        << "snapshot " << lineage.snapshot_path << "\n"
        << "delta " << lineage.delta_path << "\n";
    out.flush();
    if (!out) {
      SetError(error, "cannot write " + tmp_path);
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  // fsync the temp file's BYTES before the rename makes them reachable:
  // rename-then-crash must never expose an empty head.
  if (!SyncFile(tmp_path, error)) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), head_path.c_str()) != 0) {
    SetError(error, "cannot publish " + head_path + ": " +
                        std::strerror(errno));
    std::remove(tmp_path.c_str());
    return false;
  }
  return SyncParentDir(head_path, error);
}

}  // namespace rigpm
