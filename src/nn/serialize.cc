#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>

#include "common/logging.h"

namespace enode {

namespace {

constexpr char kMagic[4] = {'E', 'N', 'O', 'D'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
writeValue(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readValue(std::istream &in, const std::string &path)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!in)
        ENODE_FATAL("truncated checkpoint '", path, "'");
    return value;
}

} // namespace

void
saveParameters(const std::string &path, const std::vector<ParamSlot> &slots)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        ENODE_FATAL("cannot open '", path, "' for writing");

    out.write(kMagic, sizeof(kMagic));
    writeValue<std::uint32_t>(out, kVersion);
    writeValue<std::uint32_t>(out, static_cast<std::uint32_t>(slots.size()));
    for (const auto &slot : slots) {
        ENODE_ASSERT(slot.param != nullptr, "null param in slot '",
                     slot.name, "'");
        writeValue<std::uint32_t>(
            out, static_cast<std::uint32_t>(slot.name.size()));
        out.write(slot.name.data(),
                  static_cast<std::streamsize>(slot.name.size()));
        // Read through const: saving must not advance the version.
        const Tensor &param = *slot.param;
        const auto &shape = param.shape();
        writeValue<std::uint32_t>(out,
                                  static_cast<std::uint32_t>(shape.rank()));
        for (std::size_t d = 0; d < shape.rank(); d++)
            writeValue<std::uint64_t>(out, shape.dim(d));
        out.write(reinterpret_cast<const char *>(param.data()),
                  static_cast<std::streamsize>(param.numel() *
                                               sizeof(float)));
    }
    if (!out)
        ENODE_FATAL("write to '", path, "' failed");
}

void
loadParameters(const std::string &path, const std::vector<ParamSlot> &slots)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        ENODE_FATAL("cannot open checkpoint '", path, "'");
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);

    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        ENODE_FATAL("'", path, "' is not an eNODE checkpoint");
    const auto version = readValue<std::uint32_t>(in, path);
    if (version != kVersion)
        ENODE_FATAL("checkpoint version ", version, " unsupported");
    const auto count = readValue<std::uint32_t>(in, path);
    if (count != slots.size())
        ENODE_FATAL("checkpoint has ", count, " parameters, model has ",
                    slots.size());

    std::map<std::string, const ParamSlot *> by_name;
    for (const auto &slot : slots) {
        const bool inserted =
            by_name.emplace(slot.name, &slot).second;
        ENODE_ASSERT(inserted, "duplicate slot name '", slot.name, "'");
    }

    for (std::uint32_t i = 0; i < count; i++) {
        // File bytes size nothing until checked: a name length is
        // bounded by the bytes left, and the extents must equal the
        // slot's before any Shape is built from them (Shape aborts on a
        // rank above kMaxRank or a zero extent; a slot has neither).
        const auto name_len = readValue<std::uint32_t>(in, path);
        const auto left = file_size - static_cast<std::uint64_t>(in.tellg());
        if (name_len > left)
            ENODE_FATAL("corrupt checkpoint '", path, "': name length ",
                        name_len, " of parameter ", i, " exceeds the ", left,
                        " bytes left");
        std::string name(name_len, '\0');
        in.read(name.data(), name_len);
        if (!in)
            ENODE_FATAL("truncated checkpoint '", path, "'");

        auto it = by_name.find(name);
        if (it == by_name.end())
            ENODE_FATAL("checkpoint parameter '", name,
                        "' not found in the model");
        const ParamSlot &slot = *it->second;

        const Shape &expected = slot.param->shape();
        const auto rank = readValue<std::uint32_t>(in, path);
        if (rank != expected.rank())
            ENODE_FATAL("shape mismatch for '", name, "' in checkpoint '",
                        path, "': rank ", rank, " vs model ",
                        expected.str());
        for (std::size_t d = 0; d < rank; d++) {
            const auto extent = readValue<std::uint64_t>(in, path);
            if (extent != expected.dim(d))
                ENODE_FATAL("shape mismatch for '", name,
                            "' in checkpoint '", path, "': extent ", d,
                            " is ", extent, " vs model ", expected.str());
        }

        in.read(reinterpret_cast<char *>(slot.param->data()),
                static_cast<std::streamsize>(slot.param->numel() *
                                             sizeof(float)));
        if (!in)
            ENODE_FATAL("truncated checkpoint '", path, "'");
    }
}

} // namespace enode
