#include "trace/fill_unit.hh"

namespace tpre
{

FillUnit::FillUnit(SelectionPolicy policy) : builder_(policy)
{
}

void
FillUnit::squash()
{
    ++stats_.squashes;
    builder_.abandon();
}

Trace *
FillUnit::flush()
{
    if (!builder_.active() || builder_.len() == 0) {
        builder_.abandon();
        return nullptr;
    }
    ++stats_.flushes;
    return &builder_.finalize();
}

} // namespace tpre
