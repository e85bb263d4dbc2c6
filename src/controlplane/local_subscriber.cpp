#include "controlplane/local_subscriber.h"

namespace nnn::controlplane {

LocalSubscriber::LocalSubscriber(DescriptorLog& log,
                                 cookies::CookieVerifier& verifier)
    : log_(log), verifier_(verifier) {
  const Snapshot snap = log.snapshot();
  for (const auto& descriptor : snap.live) verifier_.add_descriptor(descriptor);
  // Revocations that predate this subscriber leave tombstones, known
  // ids or not.
  for (const cookies::CookieId id : snap.revoked) verifier_.revoke(id);
  token_ = log.subscribe([this](const Update& update) { apply(update); });
}

LocalSubscriber::~LocalSubscriber() { log_.unsubscribe(token_); }

void LocalSubscriber::apply(const Update& update) {
  switch (update.op) {
    case UpdateOp::kAdd:
      verifier_.add_descriptor(update.descriptor);
      break;
    case UpdateOp::kRevoke:
      verifier_.revoke(update.id);
      break;
    case UpdateOp::kRemove:
      verifier_.remove(update.id);
      break;
  }
}

}  // namespace nnn::controlplane
