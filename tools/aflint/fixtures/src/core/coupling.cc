/**
 * @file
 * AF021 seeds: synchronous FC<->BC calls from outside the
 * controllers' own files and the facade's allowlisted pump. Never
 * compiled.
 */

#include "backside_controller.hh"
#include "frontside_controller.hh"

namespace fixture {

void
pumpFromTheWrongPlace(FrontsideController &fc, BacksideController &bc,
                      const EvictBuffer &buf)
{
    // AF021: `probe` is attributable to the frontside controller
    // alone; calling it from a random translation unit crosses the
    // domain boundary synchronously.
    (void)fc.probe(buf);

    // AF021: same crossing in the other direction — `notify` belongs
    // to the backside controller.
    bc.notify(fc);
}

} // namespace fixture
