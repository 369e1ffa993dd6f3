// Package storage implements BigDansing's data storage manager
// (Appendix F), a stand-in for the Cartilage/HDFS layer: datasets are
// stored in a binary, column-oriented layout, logically partitioned by the
// content of a chosen attribute, and optionally replicated with different
// partitioning attributes. An upload plan (the dataset's metadata) is
// persisted alongside so readers know which layout and partitioning each
// replica carries, enabling two pushdowns:
//
//	Scope pushdown: read only the requested columns;
//	Block pushdown: read only the partitions whose key matches, or iterate
//	  partition-by-partition so blocking needs no shuffle.
package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bigdansing/internal/model"
)

// UploadPlan is the persisted metadata of one stored dataset replica.
type UploadPlan struct {
	// Name is the dataset name.
	Name string `json:"name"`
	// Schema in MustParseSchema notation.
	Schema string `json:"schema"`
	// PartitionAttr is the attribute whose value hash places a tuple in a
	// partition; empty means round-robin (size-based, like plain HDFS).
	PartitionAttr string `json:"partition_attr,omitempty"`
	// Partitions is the partition count.
	Partitions int `json:"partitions"`
	// Rows is the total tuple count.
	Rows int `json:"rows"`
}

// Store manages dataset replicas under a root directory.
type Store struct {
	root string
}

// Open creates or opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// replicaDir names the directory of one replica: <name>/<partAttr or rr>.
func (s *Store) replicaDir(name, partAttr string) string {
	suffix := partAttr
	if suffix == "" {
		suffix = "_rr"
	}
	return filepath.Join(s.root, name, suffix)
}

// Upload writes a replica of rel partitioned on partAttr ("" = round-robin)
// into nParts partitions, in columnar binary layout: one file per
// (partition, column) plus an id file per partition and the upload plan.
func (s *Store) Upload(rel *model.Relation, partAttr string, nParts int) (*UploadPlan, error) {
	if nParts <= 0 {
		nParts = 4
	}
	partCol := -1
	if partAttr != "" {
		c, ok := rel.Schema.Index(partAttr)
		if !ok {
			return nil, fmt.Errorf("storage: unknown partition attribute %q", partAttr)
		}
		partCol = c
	}
	dir := s.replicaDir(rel.Name, partAttr)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Assign tuples to partitions.
	parts := make([][]model.Tuple, nParts)
	for i, t := range rel.Tuples {
		p := i % nParts
		if partCol >= 0 {
			p = int(t.Cell(partCol).Hash() % uint64(nParts))
		}
		parts[p] = append(parts[p], t)
	}

	// Write columnar files.
	for p, tuples := range parts {
		// IDs.
		var idBuf []byte
		for _, t := range tuples {
			idBuf = appendUvarint(idBuf, uint64(t.ID))
		}
		if err := os.WriteFile(partFile(dir, p, -1), idBuf, 0o644); err != nil {
			return nil, err
		}
		// One file per column.
		for c := 0; c < rel.Schema.Len(); c++ {
			var buf []byte
			for _, t := range tuples {
				buf = model.AppendValue(buf, t.Cell(c))
			}
			if err := os.WriteFile(partFile(dir, p, c), buf, 0o644); err != nil {
				return nil, err
			}
		}
	}

	plan := &UploadPlan{
		Name:          rel.Name,
		Schema:        rel.Schema.String(),
		PartitionAttr: partAttr,
		Partitions:    nParts,
		Rows:          rel.Len(),
	}
	pj, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "plan.json"), pj, 0o644); err != nil {
		return nil, err
	}
	return plan, nil
}

// Replicas lists the partitioning attributes of the stored replicas of a
// dataset (empty string denotes the round-robin replica).
func (s *Store) Replicas(name string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, name))
	if err != nil {
		return nil, fmt.Errorf("storage: dataset %q: %w", name, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if e.Name() == "_rr" {
			out = append(out, "")
		} else {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Plan reads the upload plan of a replica. plan.json is read from disk and
// may have been written by anything, so a plan with fewer than one
// partition, a schema that does not parse, or a partition count its files
// do not bear out (the last partition's id file is missing) is rejected.
func (s *Store) Plan(name, partAttr string) (*UploadPlan, error) {
	plan, _, err := s.plan(name, partAttr)
	return plan, err
}

// plan reads and validates a replica's upload plan and parses its schema.
func (s *Store) plan(name, partAttr string) (*UploadPlan, *model.Schema, error) {
	raw, err := os.ReadFile(filepath.Join(s.replicaDir(name, partAttr), "plan.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("storage: plan for %s/%s: %w", name, partAttr, err)
	}
	var plan UploadPlan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return nil, nil, fmt.Errorf("storage: plan for %s/%s: %w", name, partAttr, err)
	}
	if plan.Partitions < 1 {
		return nil, nil, fmt.Errorf("storage: plan for %s/%s: %d partitions, want at least 1", name, partAttr, plan.Partitions)
	}
	if _, err := os.Stat(partFile(s.replicaDir(name, partAttr), plan.Partitions-1, -1)); err != nil {
		return nil, nil, fmt.Errorf("storage: plan for %s/%s claims %d partitions: %w", name, partAttr, plan.Partitions, err)
	}
	schema, err := model.ParseSchema(plan.Schema)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: plan for %s/%s: %w", name, partAttr, err)
	}
	return &plan, schema, nil
}

// ReadOptions select what Read materializes, implementing the pushdowns.
type ReadOptions struct {
	// Columns restricts the read to these attributes (the Scope pushdown);
	// nil reads every column. Projected tuples keep their original IDs and
	// the returned schema covers only the requested columns.
	Columns []string
	// Partition restricts the read to one partition index (>=0), used by
	// executors that process partitions independently; -1 reads all.
	Partition int
	// BlockKey, with a content-partitioned replica, reads only the
	// partition that can contain the given partition-attribute value (the
	// Block pushdown). The value is hashed exactly like the partitioner at
	// upload time (Value.Hash), so no string key is rendered on either
	// side. Nil disables it.
	BlockKey *model.Value
}

// Read materializes (part of) a replica according to opts as a row-major
// relation, assembling each stored partition's rows straight from its id
// and column files. Slices grow with what the files hold, never with the
// counts plan.json claims.
func (s *Store) Read(name, partAttr string, opts ReadOptions) (*model.Relation, error) {
	plan, schema, err := s.plan(name, partAttr)
	if err != nil {
		return nil, err
	}
	dir := s.replicaDir(name, partAttr)

	var cols []int
	outSchema := schema
	if opts.Columns != nil {
		for _, cn := range opts.Columns {
			c, ok := schema.Index(cn)
			if !ok {
				return nil, fmt.Errorf("storage: unknown column %q", cn)
			}
			cols = append(cols, c)
		}
		outSchema = schema.Project(cols)
	} else {
		for c := 0; c < schema.Len(); c++ {
			cols = append(cols, c)
		}
	}

	lo, hi := 0, plan.Partitions
	switch {
	case opts.BlockKey != nil:
		if plan.PartitionAttr == "" {
			return nil, fmt.Errorf("storage: block pushdown needs a content-partitioned replica")
		}
		lo = int(opts.BlockKey.Hash() % uint64(plan.Partitions))
		hi = lo + 1
	case opts.Partition >= 0:
		if opts.Partition >= plan.Partitions {
			return nil, fmt.Errorf("storage: partition %d out of range (%d)", opts.Partition, plan.Partitions)
		}
		lo, hi = opts.Partition, opts.Partition+1
	}

	rel := model.NewRelation(name, outSchema)
	for p := lo; p < hi; p++ {
		ids, err := readIDs(partFile(dir, p, -1))
		if err != nil {
			return nil, err
		}
		if len(ids) == 0 {
			continue
		}
		vecs := make([][]model.Value, len(cols))
		for i, c := range cols {
			if vecs[i], err = readColumn(partFile(dir, p, c), len(ids)); err != nil {
				return nil, err
			}
		}
		// One cell slab per partition, transposed from the column vectors;
		// each tuple is a capped window of it.
		w := len(cols)
		cells := make([]model.Value, len(ids)*w)
		for i, vals := range vecs {
			for r, v := range vals {
				cells[r*w+i] = v
			}
		}
		for r, id := range ids {
			rel.Tuples = append(rel.Tuples, model.Tuple{ID: id, Cells: cells[r*w : (r+1)*w : (r+1)*w]})
		}
	}
	return rel, nil
}

func partFile(dir string, part, col int) string {
	if col < 0 {
		return filepath.Join(dir, fmt.Sprintf("p%d.ids", part))
	}
	return filepath.Join(dir, fmt.Sprintf("p%d.c%d", part, col))
}

func readIDs(path string) ([]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var out []int64
	pos := 0
	for pos < len(raw) {
		v, n := uvarint(raw[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("storage: corrupt id file %s", path)
		}
		out = append(out, int64(v))
		pos += n
	}
	return out, nil
}

func readColumn(path string, n int) ([]model.Value, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	out := make([]model.Value, 0, n)
	pos := 0
	for pos < len(raw) {
		v, used, err := model.DecodeValue(raw[pos:])
		if err != nil {
			return nil, fmt.Errorf("storage: corrupt column file %s: %w", path, err)
		}
		out = append(out, v)
		pos += used
	}
	if len(out) != n {
		return nil, fmt.Errorf("storage: column file %s has %d values, want %d", path, len(out), n)
	}
	return out, nil
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func uvarint(buf []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if b < 0x80 {
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, -1
		}
	}
	return 0, 0
}
