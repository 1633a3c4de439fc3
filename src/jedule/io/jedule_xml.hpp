#pragma once

// The default Jedule XML schedule format (paper Sec. II.C.1, Fig. 1).
//
// Document layout:
//
//   <jedule version="1.0">
//     <jedule_meta>
//       <meta name="mindelta" value="-2"/> ...
//     </jedule_meta>
//     <platform>
//       <cluster id="0" name="cluster-0" hosts="8"/> ...
//     </platform>
//     <node_infos>
//       <node_statistics>
//         <node_property name="id" value="1"/>
//         <node_property name="type" value="computation"/>
//         <node_property name="start_time" value="0.000"/>
//         <node_property name="end_time" value="0.310"/>
//         <configuration>
//           <conf_property name="cluster_id" value="0"/>
//           <conf_property name="host_nb" value="8"/>
//           <host_lists>
//             <hosts start="0" nb="8"/>
//           </host_lists>
//         </configuration>
//       </node_statistics> ...
//     </node_infos>
//   </jedule>
//
// A node may carry several <configuration> elements (e.g. a communication
// between clusters, as the paper's Fig. 1 caption notes). node_property
// entries beyond the four standard ones round-trip as Task properties.

#include <string>
#include <string_view>

#include "jedule/io/ingest.hpp"
#include "jedule/model/schedule.hpp"

namespace jedule::io {

/// Parses a schedule from Jedule XML text; validates before returning.
/// Streams directly from xml::PullParser events — no DOM is built, so the
/// cost is one zero-copy lexer pass plus the Schedule itself.
model::Schedule read_schedule_xml(std::string_view xml_text);

/// Parallel chunked reader (DESIGN.md §4i): a boundary scan cuts the
/// <node_statistics> records of the first <node_infos> section and the
/// <precedence> records of the first <precedences> section at their close
/// tags, worker threads parse record batches through per-thread
/// PullParsers, the merge re-assembles tasks in document order and one id
/// table resolves the edges — bit-identical to read_schedule_xml at any
/// thread count. Anything the scanner is not sure about (PIs in content,
/// DOCTYPE subtleties, non-record children), any worker parse error and
/// any unknown task id fall back to the serial reader, which is the spec:
/// it re-derives the exact serial result or error. Gzip inputs overlap
/// decompression with scanning/parsing via the TextSource producer.
model::Schedule read_schedule_xml_chunked(TextSource& src,
                                          const IngestOptions& opt,
                                          IngestStats* stats);

/// Reference reader: parses via the original DOM walk (xml::baseline_parse
/// + tree traversal). Accepts exactly the same documents and produces the
/// same Schedule as read_schedule_xml; retained for differential tests and
/// as the pre-optimization baseline in bench_scale.
model::Schedule read_schedule_xml_dom(const std::string& xml_text);

/// Reads and parses the file at `path`.
model::Schedule load_schedule_xml(const std::string& path);

/// Serializes (start/end times with millisecond precision, matching the
/// paper's "0.310" style — full double precision is kept via an extra
/// attribute when needed).
std::string write_schedule_xml(const model::Schedule& schedule);

/// Serializes and writes to `path`.
void save_schedule_xml(const model::Schedule& schedule,
                       const std::string& path);

}  // namespace jedule::io
