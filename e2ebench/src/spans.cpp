#include "spans.hpp"

#include <fstream>

namespace e2e {

bool span_log::write_csv(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    out << "run_id,span,parent,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        out << s.run_id << ',' << i << ',' << s.parent << ',' << s.name << ','
            << s.start_ns << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
}

} // namespace e2e
