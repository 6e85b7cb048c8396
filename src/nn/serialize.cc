#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace kdsel::nn {

namespace {

constexpr uint32_t kMagic = 0x4b44534cu;  // "KDSL"

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Collects value tensors of parameters plus state tensors.
std::vector<const Tensor*> CollectTensors(Module& module) {
  std::vector<const Tensor*> tensors;
  for (Parameter* p : module.Parameters()) tensors.push_back(&p->value);
  for (Tensor* t : module.StateTensors()) tensors.push_back(t);
  return tensors;
}

std::vector<Tensor*> CollectMutableTensors(Module& module) {
  std::vector<Tensor*> tensors;
  for (Parameter* p : module.Parameters()) tensors.push_back(&p->value);
  for (Tensor* t : module.StateTensors()) tensors.push_back(t);
  return tensors;
}

}  // namespace

Status AppendTensorsToStream(const std::vector<const Tensor*>& tensors,
                             std::string& out) {
  AppendU32(out, kMagic);
  AppendU64(out, tensors.size());
  for (const Tensor* t : tensors) {
    AppendU32(out, static_cast<uint32_t>(t->rank()));
    for (size_t d : t->shape()) AppendU64(out, d);
    out.append(reinterpret_cast<const char*>(t->raw()),
               t->size() * sizeof(float));
  }
  return Status::OK();
}

Status WriteTensors(const std::vector<const Tensor*>& tensors,
                    const std::string& path) {
  std::string blob;
  KDSEL_RETURN_NOT_OK(AppendTensorsToStream(tensors, blob));
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<std::vector<Tensor>> ReadTensors(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  const std::streamoff length = in.tellg();
  if (length < 0 || !in.seekg(0)) {
    return Status::IoError("cannot size " + path);
  }
  // Every count and shape the header claims is checked against the bytes
  // left unread before anything is allocated for it, so a corrupt header
  // is an error, not a huge allocation.
  uint64_t remaining = static_cast<uint64_t>(length);
  auto read = [&](void* v, uint64_t n) {
    if (n > remaining) return false;
    in.read(static_cast<char*>(v), static_cast<std::streamsize>(n));
    remaining -= n;
    return static_cast<bool>(in);
  };
  uint32_t magic = 0;
  if (!read(&magic, sizeof(magic)) || magic != kMagic) {
    return Status::IoError("bad magic in " + path);
  }
  uint64_t count = 0;
  if (!read(&count, sizeof(count))) {
    return Status::IoError("truncated header in " + path);
  }
  // A tensor takes at least its rank and one dimension.
  if (count > remaining / (sizeof(uint32_t) + sizeof(uint64_t))) {
    return Status::IoError("tensor count exceeds the file in " + path);
  }
  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t rank = 0;
    if (!read(&rank, sizeof(rank)) || rank == 0 || rank > 4) {
      return Status::IoError("bad tensor rank in " + path);
    }
    std::vector<size_t> shape(rank);
    size_t total = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      uint64_t dim = 0;
      if (!read(&dim, sizeof(dim))) {
        return Status::IoError("truncated shape in " + path);
      }
      shape[d] = static_cast<size_t>(dim);
      if (__builtin_mul_overflow(total, shape[d], &total)) {
        return Status::IoError("tensor shape overflows in " + path);
      }
    }
    if (total > remaining / sizeof(float)) {
      return Status::IoError("truncated tensor payload in " + path);
    }
    std::vector<float> data(total);
    if (!read(data.data(), total * sizeof(float))) {
      return Status::IoError("truncated tensor payload in " + path);
    }
    tensors.emplace_back(std::move(shape), std::move(data));
  }
  return tensors;
}

Status SaveModule(Module& module, const std::string& path) {
  return WriteTensors(CollectTensors(module), path);
}

Status LoadModule(Module& module, const std::string& path) {
  KDSEL_ASSIGN_OR_RETURN(auto tensors, ReadTensors(path));
  auto targets = CollectMutableTensors(module);
  if (tensors.size() != targets.size()) {
    return Status::FailedPrecondition(
        "tensor count mismatch: model architecture differs from checkpoint");
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (tensors[i].shape() != targets[i]->shape()) {
      return Status::FailedPrecondition("tensor shape mismatch at index " +
                                        std::to_string(i));
    }
    *targets[i] = std::move(tensors[i]);
  }
  return Status::OK();
}

}  // namespace kdsel::nn
