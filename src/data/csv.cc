#include "csv.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/digest.hh"
#include "core/failpoint.hh"

namespace wcnn {
namespace data {

namespace {

/** Strip a trailing '\r' so CRLF files parse like LF files. */
void
stripCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

/** Strip a leading UTF-8 byte-order mark from the header line. */
void
stripBom(std::string &line)
{
    if (line.size() >= 3 && line[0] == '\xef' && line[1] == '\xbb' &&
        line[2] == '\xbf')
        line.erase(0, 3);
}

std::vector<std::string>
splitLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, ','))
        fields.push_back(field);
    // Trailing comma yields an empty final field.
    if (!line.empty() && line.back() == ',')
        fields.push_back("");
    return fields;
}

} // namespace

void
writeCsv(const Dataset &ds, std::ostream &os)
{
    WCNN_FAILPOINT("csv.write", throw CsvError("injected: csv.write"));

    bool first = true;
    for (const auto &name : ds.inputs()) {
        os << (first ? "" : ",") << "x:" << name;
        first = false;
    }
    for (const auto &name : ds.outputs()) {
        os << (first ? "" : ",") << "y:" << name;
        first = false;
    }
    os << '\n';
    os << std::setprecision(17);
    for (const auto &sample : ds) {
        first = true;
        for (double v : sample.x) {
            os << (first ? "" : ",") << v;
            first = false;
        }
        for (double v : sample.y) {
            os << (first ? "" : ",") << v;
            first = false;
        }
        os << '\n';
    }
}

std::string
csvDigest(const Dataset &ds)
{
    std::ostringstream text;
    writeCsv(ds, text);
    // The legacy basis: every committed dataset digest was taken from
    // it (core/digest.hh).
    return core::hex64(core::fnv1a64(text.str(), core::kFnvLegacyBasis));
}

void
saveCsv(const Dataset &ds, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw CsvError("cannot open for writing: " + path);
    writeCsv(ds, os);
    if (!os)
        throw CsvError("write failed: " + path);
}

Dataset
readCsv(std::istream &is)
{
    WCNN_FAILPOINT("csv.read", throw CsvError("injected: csv.read"));

    std::string line;
    if (!std::getline(is, line))
        throw CsvError("missing CSV header");
    stripBom(line);
    stripCr(line);

    std::vector<std::string> input_names;
    std::vector<std::string> output_names;
    for (const auto &field : splitLine(line)) {
        if (field.rfind("x:", 0) == 0) {
            if (!output_names.empty())
                throw CsvError("x: column after y: columns");
            input_names.push_back(field.substr(2));
        } else if (field.rfind("y:", 0) == 0) {
            output_names.push_back(field.substr(2));
        } else {
            throw CsvError("header field lacks x:/y: prefix: " + field);
        }
        if (field.size() == 2)
            throw CsvError("header field has an empty column name");
    }
    // A dataset without both sides is useless to every consumer; refuse
    // at the boundary rather than trip arity contracts downstream.
    if (input_names.empty() || output_names.empty())
        throw CsvError("header needs at least one x: and one y: column");

    Dataset ds(input_names, output_names);
    const std::size_t n_cols = input_names.size() + output_names.size();
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        stripCr(line);
        if (line.empty())
            continue;
        const auto fields = splitLine(line);
        if (fields.size() != n_cols) {
            throw CsvError("row " + std::to_string(line_no) + " has " +
                           std::to_string(fields.size()) +
                           " fields, expected " + std::to_string(n_cols));
        }
        numeric::Vector x, y;
        for (std::size_t i = 0; i < fields.size(); ++i) {
            double v;
            try {
                std::size_t consumed = 0;
                v = std::stod(fields[i], &consumed);
                if (consumed != fields[i].size())
                    throw std::invalid_argument("trailing junk");
            } catch (const std::exception &) {
                throw CsvError("row " + std::to_string(line_no) +
                               ": bad number '" + fields[i] + "'");
            }
            // Reject at the boundary: a NaN/Inf that slips through
            // here would trip WCNN_CHECK_FINITE contracts deep in the
            // standardizer/trainer, turning bad input into a "bug".
            if (!std::isfinite(v)) {
                throw CsvError("row " + std::to_string(line_no) +
                               ": non-finite value '" + fields[i] + "'");
            }
            if (i < input_names.size())
                x.push_back(v);
            else
                y.push_back(v);
        }
        ds.add(std::move(x), std::move(y));
    }
    return ds;
}

Dataset
loadCsv(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw CsvError("cannot open for reading: " + path);
    return readCsv(is);
}

} // namespace data
} // namespace wcnn
