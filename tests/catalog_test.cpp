#include "catalog/catalog.h"

#include <gtest/gtest.h>

namespace eadp {
namespace {

Catalog TwoRelations() {
  Catalog c;
  int r0 = c.AddRelation("R0", 100);
  int r1 = c.AddRelation("R1", 2000);
  c.AddAttribute(r0, "R0.a", 100);
  c.AddAttribute(r0, "R0.b", 10);
  c.AddAttribute(r1, "R1.a", 2000);
  c.DeclareKey(r0, AttrSet::Single(0));
  return c;
}

TEST(Catalog, BasicAccess) {
  Catalog c = TwoRelations();
  EXPECT_EQ(c.num_relations(), 2);
  EXPECT_EQ(c.num_attributes(), 3);
  EXPECT_EQ(c.relation(0).name, "R0");
  EXPECT_DOUBLE_EQ(c.relation(1).cardinality, 2000);
  EXPECT_EQ(c.attribute(1).name, "R0.b");
  EXPECT_DOUBLE_EQ(c.DistinctOf(1), 10);
}

TEST(Catalog, AttributeOwnership) {
  Catalog c = TwoRelations();
  EXPECT_EQ(c.RelationOf(0), 0);
  EXPECT_EQ(c.RelationOf(2), 1);
  EXPECT_EQ(c.relation(0).attributes.Count(), 2);
  EXPECT_TRUE(c.relation(0).attributes.Contains(1));
}

TEST(Catalog, RelationsOfAttrSet) {
  Catalog c = TwoRelations();
  AttrSet attrs;
  attrs.Add(1);
  attrs.Add(2);
  RelSet rels = c.RelationsOf(attrs);
  EXPECT_TRUE(rels.Contains(0));
  EXPECT_TRUE(rels.Contains(1));
  EXPECT_EQ(rels.Count(), 2);
}

TEST(Catalog, AttributesOfRelSet) {
  Catalog c = TwoRelations();
  AttrSet attrs = c.AttributesOf(RelSet::Single(0));
  EXPECT_EQ(attrs.Count(), 2);
  EXPECT_TRUE(attrs.Contains(0));
  EXPECT_TRUE(attrs.Contains(1));
}

TEST(Catalog, AttributesOfRelSetAmongAttrs) {
  // The restricted form equals among ∩ AttributesOf(rels) on every pair.
  Catalog c = TwoRelations();
  for (uint64_t rels_bits = 0; rels_bits < 4; ++rels_bits) {
    for (uint64_t among_bits = 0; among_bits < 8; ++among_bits) {
      RelSet rels(rels_bits);
      AttrSet among(among_bits);
      EXPECT_EQ(c.AttributesOf(rels, among),
                among.Intersect(c.AttributesOf(rels)))
          << rels_bits << " " << among_bits;
    }
  }
}

TEST(Catalog, DeclareKeyMarksDuplicateFree) {
  Catalog c = TwoRelations();
  EXPECT_TRUE(c.relation(0).duplicate_free);
  EXPECT_FALSE(c.relation(1).duplicate_free);
  ASSERT_EQ(c.relation(0).keys.size(), 1u);
  EXPECT_EQ(c.relation(0).keys[0], AttrSet::Single(0));
}

TEST(Catalog, AttrSetToString) {
  Catalog c = TwoRelations();
  AttrSet attrs;
  attrs.Add(0);
  attrs.Add(2);
  EXPECT_EQ(c.AttrSetToString(attrs), "R0.a,R1.a");
}

}  // namespace
}  // namespace eadp
