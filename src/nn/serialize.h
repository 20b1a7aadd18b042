#ifndef ENODE_NN_SERIALIZE_H
#define ENODE_NN_SERIALIZE_H

/**
 * @file
 * Parameter checkpointing.
 *
 * Trained models (the embedded networks plus encoder/head) are saved to
 * a simple self-describing binary format and restored by parameter
 * name, so an edge deployment can train on-device (the paper's use
 * case), persist, and resume. The format:
 *
 *   magic "ENOD" | u32 version | u32 slot count
 *   per slot: u32 name length | name bytes
 *             u32 rank | u64 dims[rank]
 *             f32 data[numel]
 *
 * Loading matches slots by name and validates shapes; missing or extra
 * parameters are hard errors (a checkpoint must match its model).
 */

#include <string>
#include <vector>

#include "nn/layer.h"

namespace enode {

/** Write all slots' parameter tensors to the given file. */
void saveParameters(const std::string &path,
                    const std::vector<ParamSlot> &slots);

/**
 * Restore parameters into the given slots.
 *
 * @param path Checkpoint written by saveParameters.
 * @param slots The model's slots; every checkpoint entry must match a
 *        slot by name and shape, and vice versa.
 */
void loadParameters(const std::string &path,
                    const std::vector<ParamSlot> &slots);

} // namespace enode

#endif // ENODE_NN_SERIALIZE_H
