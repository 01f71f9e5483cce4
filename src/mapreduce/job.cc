#include "mapreduce/job.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <queue>
#include <thread>

#include "common/checkpoint.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/perf_counters.h"
#include "common/trace.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace gly::mapreduce {

namespace fs = std::filesystem;

void Counters::Increment(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += delta;
}

uint64_t Counters::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Counters::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  values_.clear();
}

namespace {

// One sorted run: a byte range of its map task's output file.
struct RunSegment {
  std::string path;
  uint64_t offset = 0;
  uint64_t length = 0;
};

// A map task's output file. As in Hadoop, where a map task writes one
// output file that holds every partition, each spill of each (mapper,
// reducer) pair is appended to it as a run and found again by its segment.
// A job so creates one spill file per map task rather than one per run:
// creating files costs the filesystem journal far more than appending.
class MapOutputFile {
 public:
  explicit MapOutputFile(std::string path) : path_(std::move(path)) {}

  // Appends `records` as one run; the file is created by the first run.
  Result<RunSegment> AppendRun(const std::vector<Record>& records) {
    if (!writer_) {
      GLY_ASSIGN_OR_RETURN(RecordFileWriter writer,
                           RecordFileWriter::Open(path_));
      writer_.emplace(std::move(writer));
    }
    RunSegment run{path_, writer_->bytes_written(), 0};
    for (const Record& r : records) GLY_RETURN_NOT_OK(writer_->Append(r));
    run.length = writer_->bytes_written() - run.offset;
    return run;
  }

  // Must be called before any run is read.
  Status Close() { return writer_ ? writer_->Close() : Status::OK(); }

 private:
  std::string path_;
  std::optional<RecordFileWriter> writer_;
};

// Collects map output for one (mapper, reducer) pair; sorts and spills runs
// into the map task's output file.
class SpillBuffer {
 public:
  SpillBuffer(MapOutputFile* file, uint64_t limit, Reducer* combiner,
              Counters* counters)
      : file_(file), limit_(limit), combiner_(combiner), counters_(counters) {}

  Status Add(uint64_t key, const std::string& value, JobStats* stats) {
    bytes_ += sizeof(uint64_t) + sizeof(uint32_t) + value.size();
    records_.push_back(Record{key, value});
    if (bytes_ >= limit_) return Spill(stats);
    return Status::OK();
  }

  Status Spill(JobStats* stats) {
    if (records_.empty()) return Status::OK();
    GLY_FAULT_POINT("mapreduce.spill.write");
    std::stable_sort(records_.begin(), records_.end(),
                     [](const Record& a, const Record& b) {
                       return a.key < b.key;
                     });
    if (combiner_ != nullptr) RunCombiner(stats);
    GLY_ASSIGN_OR_RETURN(RunSegment run, file_->AppendRun(records_));
    if (stats != nullptr) {
      stats->spill_bytes += run.length;
      ++stats->spill_files;
    }
    runs_.push_back(std::move(run));
    records_.clear();
    bytes_ = 0;
    return Status::OK();
  }

  const std::vector<RunSegment>& runs() const { return runs_; }

 private:
  // Folds sorted `records_` through the combiner, replacing each key group
  // with the combiner's output (map-side combine, as Hadoop does at spill).
  void RunCombiner(JobStats* stats);

  MapOutputFile* file_;
  uint64_t limit_;
  Reducer* combiner_;
  Counters* counters_;
  uint64_t bytes_ = 0;
  std::vector<Record> records_;
  std::vector<RunSegment> runs_;
};

// Emitter routing to per-reducer spill buffers by key hash; counts the map
// task's output records into its stats.
class PartitionedEmitter : public Emitter {
 public:
  PartitionedEmitter(std::vector<SpillBuffer>* buffers, JobStats* stats)
      : buffers_(buffers), stats_(stats) {}

  void Emit(uint64_t key, const std::string& value) override {
    uint64_t h = (key + 1) * 0x9E3779B97F4A7C15ULL;
    size_t r = static_cast<size_t>((h >> 33) % buffers_->size());
    Status s = (*buffers_)[r].Add(key, value, stats_);
    if (!s.ok()) {
      // Spill failures surface when runs are collected; remember the first.
      if (error_.ok()) error_ = s;
    }
    ++stats_->map_output_records;
  }

  const Status& error() const { return error_; }

 private:
  std::vector<SpillBuffer>* buffers_;
  JobStats* stats_;
  Status error_;
};

// Emitter that buffers records in memory (combiner / reducer output).
class VectorEmitter : public Emitter {
 public:
  void Emit(uint64_t key, const std::string& value) override {
    records_.push_back(Record{key, value});
  }
  std::vector<Record>& records() { return records_; }

 private:
  std::vector<Record> records_;
};

void SpillBuffer::RunCombiner(JobStats* stats) {
  VectorEmitter out;
  std::vector<Record> combined;
  size_t i = 0;
  while (i < records_.size()) {
    uint64_t key = records_[i].key;
    std::vector<std::string> group;
    while (i < records_.size() && records_[i].key == key) {
      group.push_back(std::move(records_[i].value));
      ++i;
    }
    combiner_->Reduce(key, group, &out, counters_);
  }
  // Combiner output for one key may be multiple records; re-sort to keep
  // the run file ordered.
  combined = std::move(out.records());
  std::stable_sort(combined.begin(), combined.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  if (stats != nullptr) stats->combined_records += combined.size();
  records_ = std::move(combined);
}

// One source in the k-way merge of sorted run files.
struct MergeSource {
  std::unique_ptr<RecordFileReader> reader;
  Record current;
};

// ------------------------------------------- map-stage checkpoint manifest

constexpr char kMapManifestName[] = ".map-manifest.ckpt";

// Size + CRC of one input file (0/0 when unreadable).
void FileDigest(const std::string& path, uint64_t* size, uint32_t* crc) {
  *size = 0;
  *crc = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  char buf[64 << 10];
  uint32_t state = kCrc32cInit;
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    *size += static_cast<uint64_t>(in.gcount());
    state = Crc32cUpdate(state, buf, static_cast<size_t>(in.gcount()));
  }
  *crc = Crc32cFinalize(state);
}

// A manifest is only reusable by the *same* job: identical inputs (path
// AND content — state files are rewritten in place between runs, so paths
// alone would let a stale manifest masquerade as current) and identical
// partitioning. Anything else must invalidate it.
std::string ManifestFingerprint(const JobConfig& config,
                                const std::vector<std::string>& inputs) {
  std::string fp;
  CheckpointEncoder enc(&fp);
  enc.PutU32(std::max(1u, config.num_mappers));
  enc.PutU32(std::max(1u, config.num_reducers));
  enc.PutU64(config.sort_buffer_bytes);
  enc.PutU64(inputs.size());
  for (const std::string& p : inputs) {
    uint64_t size = 0;
    uint32_t crc = 0;
    FileDigest(p, &size, &crc);
    enc.PutString(p);
    enc.PutU64(size);
    enc.PutU32(crc);
  }
  return fp;
}

Status WriteMapManifest(const std::string& path, const std::string& fingerprint,
                        const std::vector<std::vector<RunSegment>>& runs,
                        const JobStats& stats) {
  CheckpointWriter writer;
  *writer.AddSection("fingerprint") = fingerprint;
  CheckpointEncoder run_enc(writer.AddSection("runs"));
  run_enc.PutU64(runs.size());
  for (const auto& slot : runs) {
    run_enc.PutU64(slot.size());
    for (const RunSegment& run : slot) {
      run_enc.PutString(run.path);
      run_enc.PutU64(run.offset);
      run_enc.PutU64(run.length);
    }
  }
  CheckpointEncoder stat_enc(writer.AddSection("stats"));
  stat_enc.PutU64(stats.input_records);
  stat_enc.PutU64(stats.map_output_records);
  stat_enc.PutU64(stats.combined_records);
  stat_enc.PutU64(stats.spill_bytes);
  stat_enc.PutU32(stats.spill_files);
  stat_enc.PutDouble(stats.map_seconds);
  return writer.WriteTo(path);
}

// True when a valid same-job manifest was restored into `runs`/`stats` and
// every referenced run still lies within its file on disk.
bool TryRestoreMapManifest(const std::string& path,
                           const std::string& fingerprint,
                           size_t expected_slots,
                           std::vector<std::vector<RunSegment>>* runs,
                           JobStats* stats) {
  auto reader = CheckpointReader::Load(path);
  if (!reader.ok()) return false;
  auto fp = reader->Section("fingerprint");
  if (!fp.ok() || *fp != fingerprint) return false;

  auto runs_raw = reader->Section("runs");
  if (!runs_raw.ok()) return false;
  CheckpointDecoder run_dec(*runs_raw);
  uint64_t slots = 0;
  if (!run_dec.GetU64(&slots) || slots != expected_slots) return false;
  std::vector<std::vector<RunSegment>> restored(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    uint64_t count = 0;
    if (!run_dec.GetU64(&count) || count > run_dec.remaining()) return false;
    restored[i].resize(count);
    for (RunSegment& run : restored[i]) {
      if (!run_dec.GetString(&run.path) || !run_dec.GetU64(&run.offset) ||
          !run_dec.GetU64(&run.length)) {
        return false;
      }
    }
  }
  std::error_code ec;
  for (const auto& slot : restored) {
    for (const RunSegment& run : slot) {
      const uint64_t size = fs::file_size(run.path, ec);
      if (ec || run.offset > size || run.length > size - run.offset) {
        return false;
      }
    }
  }

  auto stats_raw = reader->Section("stats");
  if (!stats_raw.ok()) return false;
  CheckpointDecoder stat_dec(*stats_raw);
  JobStats map_stats;
  if (!stat_dec.GetU64(&map_stats.input_records) ||
      !stat_dec.GetU64(&map_stats.map_output_records) ||
      !stat_dec.GetU64(&map_stats.combined_records) ||
      !stat_dec.GetU64(&map_stats.spill_bytes) ||
      !stat_dec.GetU32(&map_stats.spill_files) ||
      !stat_dec.GetDouble(&map_stats.map_seconds)) {
    return false;
  }
  *runs = std::move(restored);
  *stats = map_stats;
  return true;
}

// Waits for every task before acting on failures: queued tasks reference
// the submitting frame, so returning on the first failed future would leave
// still-running tasks with dangling captures. Returns the first error.
Status WaitAll(std::vector<std::future<Status>>& tasks) {
  Status first = Status::OK();
  for (auto& task : tasks) {
    Status s = task.get();
    if (first.ok()) first = std::move(s);
  }
  return first;
}

// One call of Job::Run. The phases are methods over the state they share:
// Map (restore the map stage from its manifest, or run the map tasks and
// record one), ShuffleReduce (one reduce task per part file) and Cleanup.
class JobRun {
 public:
  JobRun(const JobConfig& config, const MapperFactory& mapper_factory,
         const ReducerFactory& reducer_factory,
         const ReducerFactory& combiner_factory,
         const std::vector<std::string>& inputs, const std::string& output_dir,
         ThreadPool* pool, Counters* counters)
      : config_(config),
        mapper_factory_(mapper_factory),
        reducer_factory_(reducer_factory),
        combiner_factory_(combiner_factory),
        inputs_(inputs),
        output_dir_(output_dir),
        pool_(pool),
        counters_(counters),
        mappers_(std::max(1u, config.num_mappers)),
        reducers_(std::max(1u, config.num_reducers)),
        // Checkpointed spill runs live under the output directory rather
        // than the shared scratch, so chained jobs can't clobber them and a
        // re-run of this job finds them where the manifest says.
        manifest_path_(output_dir + "/" + kMapManifestName),
        spill_dir_(config.checkpoint_map_stage ? output_dir + "/.map-runs"
                                               : config.scratch_dir),
        runs_(static_cast<size_t>(mappers_) * reducers_),
        outputs_(reducers_) {}

  Status Map();
  Status ShuffleReduce();
  // Removes the spill runs; the job completed, so the manifest (if any) is
  // obsolete.
  void Cleanup();

  const JobStats& stats() const { return stats_; }
  std::vector<std::string> TakeOutputs() { return std::move(outputs_); }

 private:
  // The spill runs mapper `m` wrote for reducer `r`.
  std::vector<RunSegment>& RunsOf(uint32_t m, uint32_t r) {
    return runs_[static_cast<size_t>(m) * reducers_ + r];
  }
  // The one file that holds every run of map task `m`.
  std::string MapOutputPath(uint32_t m) const {
    return spill_dir_ + StringPrintf("/map-%05u.out", m);
  }
  Status MapTask(uint32_t m, const std::vector<std::string>& split,
                 JobStats* stats);
  Status ReduceTask(uint32_t r, JobStats* stats);

  const JobConfig& config_;
  const MapperFactory& mapper_factory_;
  const ReducerFactory& reducer_factory_;
  const ReducerFactory& combiner_factory_;
  const std::vector<std::string>& inputs_;
  const std::string& output_dir_;
  ThreadPool* pool_;
  Counters* counters_;
  const uint32_t mappers_;
  const uint32_t reducers_;
  const std::string manifest_path_;
  const std::string spill_dir_;
  std::vector<std::vector<RunSegment>> runs_;  // [mapper * reducers + r]
  std::vector<std::string> outputs_;
  JobStats stats_;
};

Status JobRun::Map() {
  std::string fingerprint;
  if (config_.checkpoint_map_stage) {
    std::error_code ec;
    fs::create_directories(spill_dir_, ec);
    fingerprint = ManifestFingerprint(config_, inputs_);
    if (TryRestoreMapManifest(manifest_path_, fingerprint, runs_.size(),
                              &runs_, &stats_)) {
      stats_.map_stage_recovered = true;
      metrics::AddCounter("mapreduce.map_stages_recovered");
      return Status::OK();
    }
  }
  Stopwatch watch;
  trace::TraceSpan span("mapreduce.map", "mapreduce");
  perf::SpanCounters span_counters(&span);
  span.SetAttribute("mappers", uint64_t{mappers_});
  // Split inputs across mappers round-robin by file; files are the natural
  // split unit since the driver writes one part per previous reducer.
  std::vector<std::vector<std::string>> splits(mappers_);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    splits[i % mappers_].push_back(inputs_[i]);
  }
  // Per-task stats, merged afterwards to avoid locking.
  std::vector<JobStats> task_stats(mappers_);
  std::vector<std::future<Status>> tasks;
  for (uint32_t m = 0; m < mappers_; ++m) {
    tasks.push_back(pool_->Submit(
        [this, m, &splits, &task_stats] {
          return MapTask(m, splits[m], &task_stats[m]);
        }));
  }
  GLY_RETURN_NOT_OK(WaitAll(tasks));
  stats_.map_seconds = watch.ElapsedSeconds();
  for (const JobStats& ts : task_stats) {
    stats_.input_records += ts.input_records;
    stats_.map_output_records += ts.map_output_records;
    stats_.spill_bytes += ts.spill_bytes;
    stats_.spill_files += ts.spill_files;
    stats_.combined_records += ts.combined_records;
  }
  span.SetAttribute("input_records", stats_.input_records);
  span.SetAttribute("spill_bytes", stats_.spill_bytes);
  metrics::AddCounter("mapreduce.spill_bytes", stats_.spill_bytes);

  if (config_.checkpoint_map_stage) {
    // Best-effort: a failed manifest write only means a future re-run pays
    // the map phase again.
    Status manifest =
        WriteMapManifest(manifest_path_, fingerprint, runs_, stats_);
    if (!manifest.ok()) {
      GLY_LOG_WARN << "mapreduce: map manifest write failed: "
                   << manifest.ToString();
    }
  }
  return Status::OK();
}

Status JobRun::MapTask(uint32_t m, const std::vector<std::string>& split,
                       JobStats* stats) {
  // Injected task attempt failure (the Hadoop "task attempt died" mode);
  // the whole job fails, as it would with task retries off.
  GLY_FAULT_POINT("mapreduce.map.task");
  GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
  auto mapper = mapper_factory_();
  std::unique_ptr<Reducer> combiner =
      combiner_factory_ ? combiner_factory_() : nullptr;
  MapOutputFile file(MapOutputPath(m));
  std::vector<SpillBuffer> buffers;
  buffers.reserve(reducers_);
  for (uint32_t r = 0; r < reducers_; ++r) {
    buffers.emplace_back(&file, config_.sort_buffer_bytes, combiner.get(),
                         counters_);
  }
  PartitionedEmitter emitter(&buffers, stats);
  uint64_t records_since_poll = 0;
  for (const std::string& path : split) {
    GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
    GLY_ASSIGN_OR_RETURN(RecordFileReader reader, RecordFileReader::Open(path));
    Record record;
    for (;;) {
      GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
      if (!more) break;
      if (++records_since_poll >= 4096) {
        records_since_poll = 0;
        GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
      }
      ++stats->input_records;
      mapper->Map(record, &emitter, counters_);
    }
  }
  GLY_RETURN_NOT_OK(emitter.error());
  for (uint32_t r = 0; r < reducers_; ++r) {
    GLY_RETURN_NOT_OK(buffers[r].Spill(stats));
    RunsOf(m, r) = buffers[r].runs();
  }
  GLY_RETURN_NOT_OK(file.Close());
  if (config_.cancel != nullptr) config_.cancel->Heartbeat();
  return Status::OK();
}

Status JobRun::ShuffleReduce() {
  trace::TraceSpan span("mapreduce.shuffle_reduce", "mapreduce");
  perf::SpanCounters span_counters(&span);
  span.SetAttribute("reducers", uint64_t{reducers_});
  std::vector<JobStats> task_stats(reducers_);
  std::vector<std::future<Status>> tasks;
  for (uint32_t r = 0; r < reducers_; ++r) {
    tasks.push_back(pool_->Submit(
        [this, r, &task_stats] { return ReduceTask(r, &task_stats[r]); }));
  }
  GLY_RETURN_NOT_OK(WaitAll(tasks));
  for (const JobStats& ts : task_stats) {
    stats_.shuffle_bytes += ts.shuffle_bytes;
    stats_.output_bytes += ts.output_bytes;
  }
  span.SetAttribute("shuffle_bytes", stats_.shuffle_bytes);
  metrics::AddCounter("mapreduce.shuffle_bytes", stats_.shuffle_bytes);
  return Status::OK();
}

Status JobRun::ReduceTask(uint32_t r, JobStats* stats) {
  GLY_FAULT_POINT("mapreduce.reduce.task");
  GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
  // Gather this reducer's runs from every mapper.
  std::vector<MergeSource> sources;
  for (uint32_t m = 0; m < mappers_; ++m) {
    for (const RunSegment& run : RunsOf(m, r)) {
      MergeSource src;
      GLY_ASSIGN_OR_RETURN(
          RecordFileReader reader,
          RecordFileReader::Open(run.path, run.offset, run.length));
      src.reader = std::make_unique<RecordFileReader>(std::move(reader));
      GLY_ASSIGN_OR_RETURN(bool more, src.reader->Next(&src.current));
      if (more) sources.push_back(std::move(src));
    }
  }
  // K-way merge by key.
  auto cmp = [&sources](size_t a, size_t b) {
    return sources[a].current.key > sources[b].current.key;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < sources.size(); ++i) heap.push(i);

  auto reducer = reducer_factory_();
  std::string out_path = output_dir_ + StringPrintf("/part-%05u", r);
  GLY_ASSIGN_OR_RETURN(RecordFileWriter writer,
                       RecordFileWriter::Open(out_path));
  VectorEmitter out;
  uint64_t current_key = 0;
  std::vector<std::string> group;
  auto flush_group = [&]() -> Status {
    if (group.empty()) return Status::OK();
    GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
    reducer->Reduce(current_key, group, &out, counters_);
    for (const Record& rec : out.records()) {
      GLY_RETURN_NOT_OK(writer.Append(rec));
    }
    out.records().clear();
    group.clear();
    return Status::OK();
  };
  while (!heap.empty()) {
    size_t i = heap.top();
    heap.pop();
    Record& rec = sources[i].current;
    stats->shuffle_bytes +=
        sizeof(uint64_t) + sizeof(uint32_t) + rec.value.size();
    if (!group.empty() && rec.key != current_key) {
      GLY_RETURN_NOT_OK(flush_group());
    }
    current_key = rec.key;
    group.push_back(std::move(rec.value));
    GLY_ASSIGN_OR_RETURN(bool more, sources[i].reader->Next(&rec));
    if (more) heap.push(i);
  }
  GLY_RETURN_NOT_OK(flush_group());
  GLY_RETURN_NOT_OK(writer.Close());
  stats->output_bytes = writer.bytes_written();
  outputs_[r] = out_path;
  if (config_.cancel != nullptr) config_.cancel->Heartbeat();
  return Status::OK();
}

void JobRun::Cleanup() {
  std::error_code ec;
  if (config_.checkpoint_map_stage) {
    fs::remove(manifest_path_, ec);
    fs::remove(manifest_path_ + ".tmp", ec);
    fs::remove_all(spill_dir_, ec);
    return;
  }
  for (uint32_t m = 0; m < mappers_; ++m) fs::remove(MapOutputPath(m), ec);
}

}  // namespace

Job::Job(JobConfig config, MapperFactory mapper_factory,
         ReducerFactory reducer_factory, ReducerFactory combiner_factory)
    : config_(std::move(config)),
      mapper_factory_(std::move(mapper_factory)),
      reducer_factory_(std::move(reducer_factory)),
      combiner_factory_(std::move(combiner_factory)) {}

Result<std::vector<std::string>> Job::Run(
    const std::vector<std::string>& input_paths, const std::string& output_dir,
    ThreadPool* pool, Counters* counters, JobStats* stats_out) {
  if (config_.scratch_dir.empty()) {
    return Status::InvalidArgument("JobConfig.scratch_dir is required");
  }
  std::error_code ec;
  fs::create_directories(config_.scratch_dir, ec);
  fs::create_directories(output_dir, ec);

  trace::TraceSpan job_span("mapreduce.job", "mapreduce");
  perf::SpanCounters job_counters(&job_span);
  metrics::AddCounter("mapreduce.jobs");
  GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
  // Simulated job submission + scheduling latency.
  if (config_.job_startup_s > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.job_startup_s));
  }

  JobRun run(config_, mapper_factory_, reducer_factory_, combiner_factory_,
             input_paths, output_dir, pool, counters);
  GLY_RETURN_NOT_OK(run.Map());
  GLY_RETURN_NOT_OK(run.ShuffleReduce());
  run.Cleanup();
  if (stats_out != nullptr) *stats_out = run.stats();
  return run.TakeOutputs();
}

}  // namespace gly::mapreduce
