package xmtc

import "fmt"

// Kind discriminates XMTC types.
type Kind uint8

const (
	KVoid Kind = iota
	KInt
	KUnsigned
	KFloat
	KChar
	KPtr
	KArray
	KFunc
	KStruct
)

// Type is an XMTC type. Types are treated structurally.
type Type struct {
	Kind     Kind
	Elem     *Type // KPtr, KArray
	ArrayLen int32 // KArray
	Volatile bool

	structSize int32 // cached layout size for KStruct

	// KFunc
	Params []*Type
	Ret    *Type

	// KStruct
	StructName string
	Fields     []*Field
}

// Field is one member of a struct type, with its computed byte offset.
type Field struct {
	Name   string
	Type   *Type
	Offset int32
}

// FieldByName returns the named member, or nil.
func (t *Type) FieldByName(name string) *Field {
	if t.Kind != KStruct {
		return nil
	}
	for _, f := range t.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// LayoutStruct installs and lays out the members of a (possibly
// forward-declared) struct type. Self-referential members are only legal
// through pointers; the parser checks that before calling.
func (t *Type) LayoutStruct(fields []*Field) {
	t.Fields = fields
	off := int32(0)
	for _, f := range fields {
		a := f.Type.Align()
		off = (off + a - 1) &^ (a - 1)
		f.Offset = off
		off += f.Type.Size()
	}
	t.structSize = (off + 3) &^ 3
	if t.structSize == 0 {
		t.structSize = 4
	}
}

// ContainsByValue reports whether t (an aggregate) embeds other by value —
// used to reject recursive struct members.
func (t *Type) ContainsByValue(other *Type) bool {
	switch t.Kind {
	case KArray:
		return t.Elem.ContainsByValue(other)
	case KStruct:
		if t == other {
			return true
		}
		for _, f := range t.Fields {
			if f.Type.ContainsByValue(other) {
				return true
			}
		}
	}
	return t == other
}

// Singleton base types.
var (
	TypeVoid     = &Type{Kind: KVoid}
	TypeInt      = &Type{Kind: KInt}
	TypeUnsigned = &Type{Kind: KUnsigned}
	TypeFloat    = &Type{Kind: KFloat}
	TypeChar     = &Type{Kind: KChar}
)

// PtrTo returns a pointer type.
func PtrTo(t *Type) *Type { return &Type{Kind: KPtr, Elem: t} }

// ArrayOf returns an array type.
func ArrayOf(t *Type, n int32) *Type { return &Type{Kind: KArray, Elem: t, ArrayLen: n} }

// Size returns the storage size in bytes.
func (t *Type) Size() int32 {
	switch t.Kind {
	case KVoid:
		return 0
	case KChar:
		return 1
	case KArray:
		return t.Elem.Size() * t.ArrayLen
	case KStruct:
		return t.structSize
	default:
		return 4
	}
}

// Align returns the required alignment.
func (t *Type) Align() int32 {
	switch t.Kind {
	case KChar:
		return 1
	case KArray:
		return t.Elem.Align()
	case KStruct:
		return 4
	default:
		return 4
	}
}

// IsInteger reports int/unsigned/char.
func (t *Type) IsInteger() bool {
	return t.Kind == KInt || t.Kind == KUnsigned || t.Kind == KChar
}

// IsArith reports integer or float.
func (t *Type) IsArith() bool { return t.IsInteger() || t.Kind == KFloat }

// IsScalar reports arithmetic or pointer.
func (t *Type) IsScalar() bool { return t.IsArith() || t.Kind == KPtr }

// Same reports structural type equality (ignoring volatile).
func (t *Type) Same(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KPtr:
		return t.Elem.Same(o.Elem)
	case KArray:
		return t.ArrayLen == o.ArrayLen && t.Elem.Same(o.Elem)
	case KFunc:
		if len(t.Params) != len(o.Params) || !t.Ret.Same(o.Ret) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Same(o.Params[i]) {
				return false
			}
		}
	case KStruct:
		return t.StructName == o.StructName
	}
	return true
}

// AssignableFrom reports whether a value of type src may be assigned to t
// (with the usual C-subset conversions: arithmetic conversions, array decay
// handled by the caller, pointer compatibility, void* wildcards).
func (t *Type) AssignableFrom(src *Type) bool {
	if t.IsArith() && src.IsArith() {
		return true
	}
	if t.Kind == KPtr && src.Kind == KPtr {
		return t.Elem.Same(src.Elem) || t.Elem.Kind == KVoid || src.Elem.Kind == KVoid
	}
	// Integer 0 to pointer is handled in sema (null constant).
	return t.Same(src)
}

func (t *Type) String() string {
	switch t.Kind {
	case KVoid:
		return "void"
	case KInt:
		return "int"
	case KUnsigned:
		return "unsigned"
	case KFloat:
		return "float"
	case KChar:
		return "char"
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.ArrayLen)
	case KFunc:
		s := t.Ret.String() + " ("
		for i, p := range t.Params {
			if i > 0 {
				s += ", "
			}
			s += p.String()
		}
		return s + ")"
	case KStruct:
		return "struct " + t.StructName
	}
	return "?"
}
