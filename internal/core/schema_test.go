package core

import (
	"fmt"
	"reflect"
	"testing"

	"labflow/internal/labbase"
	"labflow/internal/storage/memstore"
)

// schemaIDs opens a fresh store, defines the schema, and returns its step
// classes in definition order with each class's attributes as name=ID.
func schemaIDs(t *testing.T) []string {
	t.Helper()
	db, err := labbase.Open(memstore.Open("schema-mm"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	defer db.Commit()
	if err := DefineSchema(db); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, class := range db.StepClasses() {
		versions, err := db.StepClassVersions(class)
		if err != nil {
			t.Fatal(err)
		}
		line := class
		for _, v := range versions {
			for _, name := range v {
				id, err := db.DefineAttr(name, labbase.KindAny) // an existing attribute: its ID
				if err != nil {
					t.Fatal(err)
				}
				line += fmt.Sprintf(" %s=%d", name, id)
			}
		}
		out = append(out, line)
	}
	return out
}

// TestDefineSchemaDeterministic: every open of the schema assigns the same
// step-class order and the same attribute IDs, so nothing downstream of a
// catalog ID varies from run to run of one seed.
func TestDefineSchemaDeterministic(t *testing.T) {
	first := schemaIDs(t)
	if len(first) != 8 {
		t.Fatalf("%d step classes, want 8: %v", len(first), first)
	}
	for i := 1; i < 5; i++ {
		if got := schemaIDs(t); !reflect.DeepEqual(got, first) {
			t.Fatalf("open %d defined\n%v\nopen 0 defined\n%v", i, got, first)
		}
	}
}
