// Client-side cookie generation (Listing 3, generate_cookie).
//
// The generator is the user-agent half of the mechanism: bound to one
// descriptor, a clock, and an RNG, it mints fresh signed cookies on
// demand. "Instead [of asking the network per packet], the user
// requests a cookie descriptor which is then used to locally generate
// multiple cookies" (§4.1).
#pragma once

#include "cookies/cookie.h"
#include "cookies/descriptor.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn::cookies {

class CookieGenerator {
 public:
  /// The clock must outlive the generator.
  CookieGenerator(CookieDescriptor descriptor, const util::Clock& clock,
                  uint64_t rng_seed);

  /// Mint a fresh cookie: new uuid, current timestamp, valid signature.
  Cookie generate();

  const CookieDescriptor& descriptor() const { return descriptor_; }

 private:
  CookieDescriptor descriptor_;
  const util::Clock& clock_;
  util::Rng rng_;
};

}  // namespace nnn::cookies
